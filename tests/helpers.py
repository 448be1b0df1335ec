"""Independent oracles used to cross-check the package implementations.

Everything here is deliberately written with different algorithms than the
library: trapezoid integration instead of Gauss-Hermite quadrature, an
iterative Pascal recurrence instead of math.comb, exact rationals for the
overflow expectation, brute-force enumeration for ranking order, a
Pascal-table walk and a math.comb scan for unranking, a per-request
loop for the reservoir switch, per-source masks for the ideal encoder, and
a block-by-block loop for the Monte Carlo harness.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from signshape.enumdm import _DENSE, _START_SLACK


def trapezoid_mi(points: np.ndarray, pmf: np.ndarray, sigma: float) -> float:
    """Mutual information of a discrete input over AWGN by direct integration."""
    points = np.asarray(points, dtype=float)
    pmf = np.asarray(pmf, dtype=float)
    span = float(points.max() - points.min())
    y = np.linspace(points.min() - 12.0 * sigma, points.max() + 12.0 * sigma,
                    20001 + int(span / sigma) * 40)
    dens = np.exp(-((y[None, :] - points[:, None]) ** 2) / (2.0 * sigma * sigma))
    dens /= sigma * np.sqrt(2.0 * np.pi)
    mix = pmf @ dens
    h_y = -np.trapezoid(np.where(mix > 0, mix * np.log(mix), 0.0), y)
    h_y_given_x = 0.5 * np.log(2.0 * np.pi * np.e * sigma * sigma)
    return float((h_y - h_y_given_x) / np.log(2.0))


def pascal_binomial(n: int, k: int) -> int:
    """Binomial coefficient via the multiplicative recurrence."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    value = 1
    for i in range(k):
        value = value * (n - i) // (i + 1)
    return value


def exact_excess_expectation(n: int) -> Fraction:
    """Expected one-sided surplus of a fair binomial(n, 1/2) around n/2.

    Computed as an explicit sum over outcomes, entirely in rationals.
    """
    half = n // 2
    total = Fraction(0)
    for ones in range(half + 1, n + 1):
        total += Fraction(pascal_binomial(n, ones) * (ones - half), 2**n)
    return total


def words_in_rank_order(n: int, w: int) -> list[tuple[int, ...]]:
    """All weight-w length-n binary words sorted by expected matcher index.

    Index order corresponds to colexicographic order of the reversed
    support: the all-left-zeros word (ones packed at the right end) is
    index 0 and the ones-first word is last.
    """

    def key(positions: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted((n - 1 - i for i in positions), reverse=True))

    def word(positions: tuple[int, ...]) -> tuple[int, ...]:
        bits = [0] * n
        for i in positions:
            bits[i] = 1
        return tuple(bits)

    ordered = sorted(combinations(range(n), w), key=key)
    return [word(p) for p in ordered]


@lru_cache(maxsize=8)
def _pascal_column(n: int, w: int) -> tuple[int, ...]:
    """C(t, w) for t = 0..n, by the additive recurrence column after column."""
    col = [1] * (n + 1)
    for _ in range(w):
        prev, col = col, [0] * (n + 1)
        for t in range(1, n + 1):
            col[t] = col[t - 1] + prev[t - 1]
    return tuple(col)


def matcher_walk_start(rem: int, r: int, upper: int) -> int:
    """Where the matcher's walk starts for the one with r ones still to
    place, remainder rem >= 1 and previous one at upper: next to upper while
    upper < 8 r, else at the closed-form bound of `enumdm._walk_start`,
    restated here with the same float operations."""
    if upper < _DENSE * r:
        return upper - 1
    bound = math.log(rem) + math.lgamma(r + 1)
    a = (r - 1) / 2
    m = math.exp(bound / r)
    c = (r * r - 1) / 24
    q = m * m - a * a
    estimate = m * math.exp(c / q) + a if q > 2 * c else m + 2 * a
    return min(upper - 1, int(estimate + _START_SLACK))


def pascal_unrank_counted(index: int, n: int, w: int) -> tuple[np.ndarray, int]:
    """Unranking by binary searches over a Pascal table, with the probe
    count of the matcher's walks.

    The word comes from the search the matcher is specified by: for
    r = w..1, the largest t in [r-1, upper-1] with C(t, r) <= remainder,
    probing mid = (lo + hi + 1) // 2. Binomials are read from an exact
    Pascal column; each next column comes from C(t, r-1) = C(t+1, r) - C(t, r),
    so only one column is held at a time. The count replays the matcher's
    walk on the same column: from `matcher_walk_start` down to the answer,
    one probe per t, and none once the remainder is 0.
    """
    col = list(_pascal_column(n, w))
    bits = np.zeros(n, dtype=np.uint8)
    rem, upper, comparisons = index, n, 0
    for r in range(w, 0, -1):
        lo, hi = r - 1, upper - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if col[mid] <= rem:
                lo = mid
            else:
                hi = mid - 1
        if rem:
            t = matcher_walk_start(rem, r, upper)
            comparisons += 1
            while col[t] > rem:
                t -= 1
                comparisons += 1
            if t != lo:
                raise AssertionError(f"walk from its start ends at {t}, not at {lo}")
        rem -= col[lo]
        bits[n - lo - 1] = 1
        upper = lo
        col = [col[t + 1] - col[t] for t in range(upper)]
    if rem:
        raise ValueError(f"index {index} is not below C({n}, {w})")
    return bits, comparisons


def comb_greedy_unrank(index: int, n: int, w: int) -> np.ndarray:
    """Unranking by a linear scan: for r = w..1, step t down from the last
    one's position until C(t, r) <= remainder, starting from math.comb.
    """
    bits = np.zeros(n, dtype=np.uint8)
    rem, upper = index, n
    for r in range(w, 0, -1):
        t = upper - 1
        c = math.comb(t, r)
        while c > rem:
            c = c * (t - r) // t  # C(t - 1, r)
            t -= 1
        rem -= c
        bits[n - 1 - t] = 1
        upper = t
    if rem:
        raise ValueError(f"index {index} is not below C({n}, {w})")
    return bits


def loop_serve_requests(requests, capacities) -> tuple[np.ndarray, int]:
    """The reservoir switch one request at a time: each takes a bit from its
    own reservoir, or from the lowest-indexed one with bits left."""
    remaining = list(capacities)
    served = np.empty(len(requests), dtype=np.int64)
    overflow = 0
    for t, want in enumerate(requests):
        src = int(want)
        if remaining[src] == 0:
            src = next(i for i, r in enumerate(remaining) if r > 0)
            overflow += 1
        remaining[src] -= 1
        served[t] = src
    return served, overflow


def mask_encode_ideal(config) -> np.ndarray:
    """Symbols of an ideal-sources block, each source's draws scattered
    straight into the slots whose folded prefix selects it."""
    m, probs, n = config.profile.m, config.profile.probs, config.n
    M = 1 << m
    children = np.random.SeedSequence(config.rng_seed).spawn(1 + len(probs))
    prefix_rng, *source_rngs = (np.random.default_rng(c) for c in children)
    prefix = prefix_rng.integers(0, 2, size=(n, m - 1), dtype=np.uint8)
    d = prefix.astype(np.int64) @ (1 << np.arange(m - 1))
    flip = d >= M // 4
    src = np.where(flip, M // 2 - 1 - d, d) // (M // (4 * len(probs)))
    source_bits = np.empty(n, dtype=np.uint8)
    for i, p in enumerate(probs):
        mask = src == i
        source_bits[mask] = source_rngs[i].random(int(mask.sum())) >= p
    sign = source_bits ^ flip
    return 2 * (d + (sign.astype(np.int64) << (m - 1))) - (M - 1)


def loop_simulate_run(config):
    """The Monte Carlo harness one block at a time: encode, add noise,
    decide, and add each block's counts to the statistics."""
    from signshape.constellation import selection_tables
    from signshape.shaper import (
        _matcher_bits, _split_ranks, _split_symbols, encode_block_dm, encode_block_ideal,
    )
    from signshape.simulate import SimReport, _decide_ranks, _entropy, _mi_from_joint

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
