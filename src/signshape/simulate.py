"""Monte Carlo harness for the uncoded shaped chain over AWGN.

The blocks come from `shaper._block_chunks`, the chunked, seeded block
stream that also serves `encode_block_ideal` and `empirical_source_frequencies`:
it alone knows the chunk and draw sizes, how a seed becomes blocks and which encoder
each mode runs, and it yields ranks and served matcher bits, read here as they are.
SeedSequence(rng_seed) spawns the noise seed and the data seed the stream reads.
Per chunk the harness adds white Gaussian noise, makes a prior-free nearest-symbol
decision and runs one vectorised statistics pass (the energy comes from the rank
counts), so working memory is a few chunk-sized arrays and one draw whatever num_blocks is.
The stream and the noise are a block-by-block loop's, so the report equals its.
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
from .errors import ParameterError, _integer, _real
from .shaper import (
    ShaperConfig,
    _block_chunks,
    _matcher_bits,
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
        object.__setattr__(self, "noise_std", _real(self.noise_std, "noise_std", 0.0, closed=True))
        object.__setattr__(self, "num_blocks", _integer(self.num_blocks, "num_blocks", 1))
        object.__setattr__(self, "rng_seed", _integer(self.rng_seed, "rng_seed", 0))
        # the MI histogram's bin indices reach about 8 (M - 1) / noise_std, and
        # it spans 2 (M - 1 + 5 noise_std)
        M = 1 << self.shaper.profile.m
        if 0 < self.noise_std and 8 * (M - 1) >= 2**62 * self.noise_std:
            raise ParameterError(f"noise_std = {self.noise_std} puts histogram bins beyond int64")
        if not 2.0 * (M + 5.0 * self.noise_std) < math.inf:
            raise ParameterError(f"noise_std = {self.noise_std} puts the histogram span beyond float")


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
    # (y + M - 1) / 2 is the rank scale, midpoints at .5; clipped as float, int64 ends at 2^63
    return np.clip(np.ceil((y + (M - 1)) / 2.0 - 0.5), 0, M - 1).astype(np.int64)


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
    sigma = config.noise_std
    _, flip_table = selection_tables(m, shaper_cfg.profile.num_distinct)
    bit_of_rank = _matcher_bits(np.arange(M), m, flip_table)  # a decided rank's matcher bit
    points = np.arange(-(M - 1), M, 2)

    seq = np.random.SeedSequence(config.rng_seed)
    noise_seq, data_seq = seq.spawn(2)
    noise_rng = np.random.default_rng(noise_seq)

    if sigma > 0:
        half_range = float(M - 1) + 5.0 * sigma
        bin_width = sigma / 4.0
        num_bins = math.ceil(2.0 * half_range / bin_width)
        first_bin = np.floor((points + half_range) / bin_width).astype(np.int64) - _BAND
        band = np.zeros((M, 2 * _BAND + 1), dtype=np.int64)

    sent_counts = np.zeros(M, dtype=np.int64)
    symbol_errors = 0
    shaping_bit_errors = 0
    overflow_total = 0
    overflow_max = 0

    for ranks, sent_bits, overflow in _block_chunks(shaper_cfg, data_seq, config.num_blocks):
        # one draw of a chunk's normals is the stream of one draw of n per block
        y = points[ranks] + sigma * noise_rng.standard_normal(ranks.shape)

        decided_ranks = _decide_ranks(y, M)
        symbol_errors += int(np.count_nonzero(decided_ranks != ranks))
        shaping_bit_errors += int(np.count_nonzero(sent_bits != bit_of_rank[decided_ranks]))

        sent_counts += np.bincount(ranks.ravel(), minlength=M)
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
    energy_sum = sent_counts.astype(object) @ points**2  # exact: Python ints
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
