"""Monte Carlo harness for the uncoded shaped chain over AWGN.

Per block: encode, add white Gaussian noise, demap with a prior-free
nearest-symbol decision, and accumulate statistics. The demapper ignores
the shaped prior on purpose; the harness validates the shaping chain, not
receiver optimality.

The MI estimate is plug-in: Y is quantized to bins of width sigma/4 over
+-(max symbol + 5 sigma) and I(X;Y) is read off the empirical joint
histogram. At sigma = 0 it degenerates to the empirical input entropy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .constellation import selection_tables
from .errors import ParameterError
from .shaper import (
    ShaperConfig,
    _matcher_bits,
    _split_ranks,
    _split_symbols,
    encode_block_dm,
    encode_block_ideal,
)

__all__ = ["SimConfig", "SimReport", "run"]


@dataclass(frozen=True)
class SimConfig:
    shaper: ShaperConfig
    noise_std: float
    num_blocks: int
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.noise_std < math.inf:
            raise ParameterError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.num_blocks < 1:
            raise ParameterError(f"num_blocks must be >= 1, got {self.num_blocks}")


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo outcome."""

    num_symbols: int
    empirical_distribution: tuple[float, ...]
    empirical_energy: float
    symbol_error_rate: float
    shaping_bit_error_rate: float
    mi_estimate: float
    overflow_mean: float
    overflow_max: int


def _decide_ranks(y: np.ndarray, M: int) -> np.ndarray:
    """Rank of the nearest of M symbols; exact midpoints go to the smaller."""
    # (y + M - 1) / 2 is the rank scale, where midpoints sit at .5
    return np.clip(np.ceil((y + (M - 1)) / 2.0 - 0.5).astype(np.int64), 0, M - 1)


def _mi_from_joint(joint: np.ndarray) -> float:
    total = joint.sum()
    if total == 0:
        return 0.0
    pxy = joint / total
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    ratio = pxy[mask] / (px @ py)[mask]
    return float((pxy[mask] * np.log2(ratio)).sum())


def _entropy(pmf: np.ndarray) -> float:
    live = pmf[pmf > 0]
    return float(-(live * np.log2(live)).sum())


def run(config: SimConfig) -> SimReport:
    """Simulate num_blocks blocks; deterministic for a fixed rng_seed."""
    shaper_cfg = config.shaper
    m = shaper_cfg.profile.m
    M = 1 << m
    n = shaper_cfg.n
    sigma = float(config.noise_std)
    _, flip_table = selection_tables(m, shaper_cfg.profile.num_distinct)

    seq = np.random.SeedSequence(config.rng_seed)
    noise_seq, data_seq = seq.spawn(2)
    noise_rng = np.random.default_rng(noise_seq)
    data_rng = np.random.default_rng(data_seq)
    block_seeds = data_seq.generate_state(config.num_blocks, dtype=np.uint64)

    if sigma > 0:
        half_range = float(M - 1) + 5.0 * sigma
        bin_width = sigma / 4.0
        num_bins = int(math.ceil(2.0 * half_range / bin_width))
        joint = np.zeros((M, num_bins), dtype=np.int64)

    sent_counts = np.zeros(M, dtype=np.int64)
    energy_sum = 0.0
    symbol_errors = 0
    shaping_bit_errors = 0
    overflow_total = 0
    overflow_max = 0

    for b in range(config.num_blocks):
        if shaper_cfg.mode == "block-dm":
            info = data_rng.integers(0, 2, size=shaper_cfg.info_length, dtype=np.uint8)
            block = encode_block_dm(shaper_cfg, info)
        else:
            # only the ideal sources read rng_seed; a fresh config per block
            block = encode_block_ideal(
                dataclasses.replace(shaper_cfg, rng_seed=int(block_seeds[b]))
            )
        ranks, d, sign_bits = _split_symbols(block.symbols, m)
        x = np.asarray(block.symbols, dtype=float)

        noise = noise_rng.standard_normal(n)
        y = x + sigma * noise

        decided_ranks = _decide_ranks(y, M)
        symbol_errors += int((decided_ranks != ranks).sum())
        sent_bits = _matcher_bits(d, sign_bits, flip_table)
        decided_bits = _matcher_bits(*_split_ranks(decided_ranks, m), flip_table)
        shaping_bit_errors += int((sent_bits != decided_bits).sum())

        np.add.at(sent_counts, ranks, 1)
        energy_sum += float((x * x).sum())
        overflow_total += block.overflow_count
        overflow_max = max(overflow_max, block.overflow_count)

        if sigma > 0:
            bins = np.floor((y + half_range) / bin_width).astype(np.int64)
            bins = np.clip(bins, 0, num_bins - 1)
            np.add.at(joint, (ranks, bins), 1)

    total = n * config.num_blocks
    pmf = sent_counts / total
    mi = _mi_from_joint(joint) if sigma > 0 else _entropy(pmf)
    return SimReport(
        num_symbols=total,
        empirical_distribution=tuple(pmf.tolist()),
        empirical_energy=energy_sum / total,
        symbol_error_rate=symbol_errors / total,
        shaping_bit_error_rate=shaping_bit_errors / total,
        mi_estimate=mi,
        overflow_mean=overflow_total / config.num_blocks,
        overflow_max=overflow_max,
    )
