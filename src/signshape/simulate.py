"""Monte Carlo harness for the uncoded shaped chain over AWGN.

Blocks go in chunks of max(1, 8192 // n): per chunk, one batch encode,
white Gaussian noise, a prior-free nearest-symbol decision and one
vectorised statistics pass, so working memory is a few chunk-sized arrays
whatever num_blocks is. The info bits (block-dm), the prefix and source
draws (ideal-sources, from generators spawned once per run) and the noise
are the streams of a block-by-block loop, so the report equals that loop's.
The demapper ignores the shaped prior on purpose; the harness validates the
shaping chain, not receiver optimality.

The MI estimate is plug-in: Y is quantized to bins of width sigma/4 over
+-(max symbol + 5 sigma) and I(X;Y) is read off the empirical joint
histogram, whose row r holds only the 69 bins within 8.5 sigma of symbol r
(a sample farther out counts in the edge bin): M x 69 int64 cells whatever
sigma is. At sigma = 0 it degenerates to the empirical input entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import selection_tables
from .errors import ParameterError
from .shaper import (
    _CHUNK_SYMBOLS,
    ShaperConfig,
    _encode_dm_rows,
    _ideal_rows,
    _matcher_bits,
    _split_ranks,
    _split_symbols,
    _uniform_info,
    encode_block_dm,  # not called here; perfbench's tracer rebinds this name
)

__all__ = ["SimConfig", "SimReport", "run"]

_BAND = 34  # bins of sigma/4 a histogram row holds on each side of its symbol's bin


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
        # the MI histogram's bin indices reach about 8 (M - 1) / noise_std
        if 0 < self.noise_std and 8 * ((1 << self.shaper.profile.m) - 1) >= 2**62 * self.noise_std:
            raise ParameterError(f"noise_std = {self.noise_std} puts histogram bins beyond int64")


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


def _band_mi(band: np.ndarray, first_bin: np.ndarray) -> float:
    """Plug-in I(X;Y) of a joint histogram whose row r holds absolute bins
    first_bin[r], first_bin[r] + 1, ...; the marginals are whole counts
    divided once, and the sum runs over the nonzero cells in row order."""
    per_row = np.count_nonzero(band, axis=1)
    column = np.flatnonzero(band)  # row by row
    counts = band.ravel()[column]
    # first_bin ascends, so the rows laid end to end, overlaps shared, number
    # the bins 0, 1, ... in order, up to M x 69 whatever the absolute index
    start = np.cumsum(np.minimum(np.diff(first_bin, prepend=first_bin[0]), band.shape[1]))
    column %= band.shape[1]
    column += np.repeat(start, per_row)
    total = counts.sum()
    px = band.sum(axis=1) / total
    py = np.bincount(column, weights=counts) / total
    # pxy * log2(pxy / (px * py)) per cell in one reused array; with column
    # dropped first, at most three arrays of the cells' size are alive
    terms = py[column]
    del column
    terms *= np.repeat(px, per_row)
    pxy = counts / total
    np.divide(pxy, terms, out=terms)
    np.log2(terms, out=terms)
    terms *= pxy
    return float(terms.sum())


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
    if shaper_cfg.mode == "block-dm":
        data_rng = np.random.default_rng(data_seq)
    else:
        children = data_seq.spawn(1 + shaper_cfg.profile.num_distinct)
        prefix_rng, *source_rngs = map(np.random.default_rng, children)

    if sigma > 0:
        half_range = float(M - 1) + 5.0 * sigma
        bin_width = sigma / 4.0
        num_bins = math.ceil(2.0 * half_range / bin_width)
        points = np.arange(-(M - 1), M, 2)
        first_bin = np.floor((points + half_range) / bin_width).astype(np.int64) - _BAND
        band = np.zeros((M, 2 * _BAND + 1), dtype=np.int64)

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
            symbols = _ideal_rows(shaper_cfg, prefix_rng, source_rngs, count)
            overflow = np.zeros(count, dtype=np.int64)
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
            # in place: each chunk-sized temporary adds to the peak RSS
            cells = np.floor((y + half_range) / bin_width).astype(np.int64)
            np.clip(cells, 0, num_bins - 1, out=cells)
            cells -= first_bin[ranks]
            np.clip(cells, 0, 2 * _BAND, out=cells)
            cells += ranks * (2 * _BAND + 1)
            np.add.at(band.reshape(-1), cells, 1)

    total = n * config.num_blocks
    pmf = sent_counts / total
    mi = _band_mi(band, first_bin) if sigma > 0 else _entropy(pmf)
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
