"""Independent oracles used to cross-check the package implementations.

Everything here is deliberately written with different algorithms than the
library: trapezoid integration instead of Gauss-Hermite quadrature, an
iterative Pascal recurrence instead of math.comb, exact rationals for the
overflow expectation, brute-force enumeration for ranking order, a
Pascal-table walk and a math.comb scan for unranking, a per-request
loop for the reservoir switch, and per-source masks for the ideal encoder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np


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


def pascal_unrank_counted(index: int, n: int, w: int) -> tuple[np.ndarray, int]:
    """Unranking by binary searches over a Pascal table, with their probe count.

    The search is the one the matcher is specified by: for r = w..1, the
    largest t in [r-1, upper-1] with C(t, r) <= remainder, probing
    mid = (lo + hi + 1) // 2. Binomials are read from an exact Pascal
    column; each next column comes from C(t, r-1) = C(t+1, r) - C(t, r),
    so only one column is held at a time.
    """
    col = list(_pascal_column(n, w))
    bits = np.zeros(n, dtype=np.uint8)
    rem, upper, comparisons = index, n, 0
    for r in range(w, 0, -1):
        lo, hi = r - 1, upper - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            comparisons += 1
            if col[mid] <= rem:
                lo = mid
            else:
                hi = mid - 1
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
