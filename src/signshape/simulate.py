"""Monte Carlo harness for the uncoded shaped chain over AWGN.

Blocks go in chunks of max(1, 8192 // n): per chunk, one raw draw of the
info bits, one batch encode, white Gaussian noise, a prior-free
nearest-symbol decision and one vectorised statistics pass, so working
memory is a few chunk-sized arrays whatever num_blocks is. The info and
noise draws are those of a block-by-block loop, so the report equals that
loop's. The demapper ignores the shaped prior on purpose; the harness
validates the shaping chain, not receiver optimality.

The MI estimate is plug-in: Y is quantized to bins of width sigma/4 over
+-(max symbol + 5 sigma) and I(X;Y) is read off the empirical joint
histogram. At sigma = 0 it degenerates to the empirical input entropy.
SimConfig raises ParameterError if the histogram would exceed 256 MB.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .constellation import selection_tables
from .errors import ParameterError
from .shaper import (
    _CHUNK_SYMBOLS,
    ShaperConfig,
    _encode_dm_rows,
    _matcher_bits,
    _split_ranks,
    _split_symbols,
    _uniform_info,
    encode_block_dm,  # not called here; perfbench's tracer rebinds this name
    encode_block_ideal,
)

__all__ = ["SimConfig", "SimReport", "run"]


def _histogram_bins(M: int, sigma: float) -> tuple[float, float, int]:
    """Half range, bin width and bin count of the MI histogram; ParameterError
    when its M x bins int64 counts, which grow as 1/sigma, pass 256 MB (8M divides it)."""
    half_range = float(M - 1) + 5.0 * sigma
    bin_width = sigma / 4.0
    bins = 2.0 * half_range / bin_width if bin_width else math.inf
    if 8 * M * bins > 256 << 20:
        raise ParameterError(f"noise_std = {sigma} needs a {M * bins / 2**17:.4g} MB histogram")
    return half_range, bin_width, int(math.ceil(bins))


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
        if self.noise_std > 0:
            _histogram_bins(1 << self.shaper.profile.m, self.noise_std)


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
    if shaper_cfg.mode == "ideal-sources":
        block_seeds = data_seq.generate_state(config.num_blocks, dtype=np.uint64)

    if sigma > 0:
        half_range, bin_width, num_bins = _histogram_bins(M, sigma)
        joint = np.zeros((M, num_bins), dtype=np.int64)

    sent_counts = np.zeros(M, dtype=np.int64)
    energy_sum = 0
    symbol_errors = 0
    shaping_bit_errors = 0
    overflow_total = 0
    overflow_max = 0

    rows = max(1, _CHUNK_SYMBOLS // n)
    for start in range(0, config.num_blocks, rows):
        count = min(rows, config.num_blocks - start)
        if shaper_cfg.mode == "block-dm":
            info = _uniform_info(data_rng, shaper_cfg, count)
            symbols, overflow = _encode_dm_rows(shaper_cfg, info)
        else:
            # only the ideal sources read rng_seed; a fresh config per block
            blocks = [
                encode_block_ideal(dataclasses.replace(shaper_cfg, rng_seed=int(s)))
                for s in block_seeds[start : start + count]
            ]
            symbols = np.stack([block.symbols for block in blocks])
            overflow = np.array([block.overflow_count for block in blocks])
        symbols = symbols.ravel()
        ranks, d, sign_bits = _split_symbols(symbols, m)

        # one draw of count * n normals is the stream of count draws of n
        y = symbols + sigma * noise_rng.standard_normal(count * n)

        decided_ranks = _decide_ranks(y, M)
        symbol_errors += int(np.count_nonzero(decided_ranks != ranks))
        sent_bits = _matcher_bits(d, sign_bits, flip_table)
        decided_bits = _matcher_bits(*_split_ranks(decided_ranks, m), flip_table)
        shaping_bit_errors += int(np.count_nonzero(sent_bits != decided_bits))

        sent_counts += np.bincount(ranks, minlength=M)
        energy_sum += int(symbols @ symbols)  # exact: the symbols are integers
        overflow_total += int(overflow.sum())
        overflow_max = max(overflow_max, int(overflow.max()))

        if sigma > 0:
            bins = np.floor((y + half_range) / bin_width).astype(np.int64)
            bins = np.clip(bins, 0, num_bins - 1)
            # not bincount(minlength=M * num_bins): that allocates a whole histogram
            np.add.at(joint.reshape(-1), ranks * num_bins + bins, 1)

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
