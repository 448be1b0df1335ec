"""Independent oracles used to cross-check the package implementations.

Everything here is deliberately written with different algorithms than the
library: trapezoid integration instead of Gauss-Hermite quadrature, an
iterative Pascal recurrence instead of math.comb, exact rationals for the
overflow expectation, brute-force enumeration for ranking order, a
Pascal-table walk and a math.comb scan for unranking, a per-request
loop for the reservoir switch, the scan and the loop over info bits read
bit by bit for the block-dm encoder, per-source masks over rng.random
doubles and prefix words read bit by bit for the ideal encoder, a
block-by-block loop with a dense joint histogram for the Monte Carlo
harness, a block-by-block loop with per-source masks for the measured
source frequencies, and the full M x (2M - 1) Toeplitz band for the
quadrature MI.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from signshape.enumdm import _DENSE, _START_SLACK
from signshape.midist import _FLUSH_EXP


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


def full_band_exp_table(step: float, M: int, order: int = 64) -> np.ndarray:
    """exp(-(r step + sqrt2 t_k)^2 / 2) for every offset r = -(M-1)..M-1 and
    Gauss-Hermite node t_k, with entries below e^_FLUSH_EXP flushed to 0."""
    nodes = np.polynomial.hermite.hermgauss(order)[0]
    u = np.arange(-(M - 1), M, dtype=float)[:, None] * step + np.sqrt(2.0) * nodes
    arg = -0.5 * u * u
    return np.exp(arg, out=np.zeros_like(arg), where=arg > _FLUSH_EXP)


def full_band_awgn_mi(x, pmf, noise_std: float, order: int = 64, grad: bool = False):
    """awgn_mi over every offset: den = band @ table with the whole M x (2M - 1)
    Toeplitz band of the pmf, written as a broadcast into an (M, 2M) zero
    buffer read in rows of 2M - 1, whose column sums are the band's diagonal
    sums for the gradient. Valid, equally spaced input is assumed."""
    x, p = np.asarray(x, dtype=float), np.asarray(pmf, dtype=float)
    M = x.size
    z = x / noise_std
    step = float(z[1] - z[0]) if M > 1 else 0.0
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights / math.sqrt(math.pi)
    table = full_band_exp_table(step, M, order)
    r = np.arange(-(M - 1), M, dtype=float)[:, None] * step
    if grad:
        u = r + np.sqrt(2.0) * nodes
        table = np.hstack([table, table * (u * r)])
    buf = np.zeros((M, 2 * M))
    buf[:, :M] = p[::-1]
    band = buf.ravel()[: M * (2 * M - 1)].reshape(M, 2 * M - 1)
    den = band @ table
    dden, den = den[:, order:], np.maximum(den[:, :order], 1e-300)
    per_symbol = (-nodes * nodes - np.log(den)) @ weights
    mi = float(p @ per_symbol) / math.log(2.0)
    if not grad:
        return mi
    q = p[:, None] * (weights / den)
    np.matmul(q, table[:, :order].T, out=band)
    dpmf = (per_symbol - buf[:, :M].sum(axis=0)[::-1]) / math.log(2.0)
    dsigma = -float(np.vdot(q, dden)) / (math.log(2.0) * noise_std)
    return mi, dpmf, dsigma


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


def mask_ideal_row(config, rng) -> np.ndarray:
    """Symbols of the next ideal-sources block drawn from rng: n doubles
    from rng.random, then ceil((m-1) n / 64) raw words read bit by bit as n
    rows of m - 1 prefix bits. Each source's mask picks the slots whose
    folded prefix selects it, and their doubles below p_i are ones."""
    m, probs, n = config.profile.m, config.profile.probs, config.n
    M = 1 << m
    doubles = rng.random(n)
    words = rng.bit_generator.random_raw(-(-(m - 1) * n // 64))
    stream = [(int(w) >> j) & 1 for w in words for j in range(64)]
    prefix = np.array(stream[: (m - 1) * n], dtype=np.int64).reshape(n, m - 1)
    d = prefix @ (1 << np.arange(m - 1))
    flip = d >= M // 4
    src = np.where(flip, M // 2 - 1 - d, d) // (M // (4 * len(probs)))
    source_bits = np.empty(n, dtype=np.uint8)
    for i, p in enumerate(probs):
        mask = src == i
        source_bits[mask] = doubles[mask] >= p
    sign = source_bits ^ flip
    return 2 * (d + (sign.astype(np.int64) << (m - 1))) - (M - 1)


def mask_encode_ideal(config) -> np.ndarray:
    """Symbols of the ideal-sources block seeded by config.rng_seed."""
    return mask_ideal_row(config, np.random.default_rng(config.rng_seed))


def next_block(config, rng) -> tuple[np.ndarray, int]:
    """Symbols and overflow count of the next block of either mode drawn
    from rng on its own. Ideal sources are masked as by mask_ideal_row. A
    block-dm block reads ceil(L / 64) raw words bit by bit as its L info
    bits: each matcher's k bits, least significant first, are its index for
    comb_greedy_unrank, and the rest are n rows of m - 1 prefix bits. The
    switch is loop_serve_requests, and each slot takes the next bit of the
    word that serves it."""
    if config.mode == "ideal-sources":
        return mask_ideal_row(config, rng), 0
    m, n, codes = config.profile.m, config.n, config.dm_codes
    M = 1 << m
    length = sum(code.k for code in codes) + (m - 1) * n
    words = rng.bit_generator.random_raw(-(-length // 64))
    stream = [(int(w) >> j) & 1 for w in words for j in range(64)][:length]
    reservoirs = []
    for code in codes:
        bits, stream = stream[: code.k], stream[code.k :]
        index = sum(bit << j for j, bit in enumerate(bits))
        reservoirs.append(iter(comb_greedy_unrank(index, code.n, code.w).tolist()))
    d = np.array(stream, dtype=np.int64).reshape(n, m - 1) @ (1 << np.arange(m - 1))
    flip = d >= M // 4
    src = np.where(flip, M // 2 - 1 - d, d) // (M // (4 * len(codes)))
    served, overflow = loop_serve_requests(src, [code.n for code in codes])
    source_bits = np.array([1 - next(reservoirs[s]) for s in served], dtype=np.int64)
    return 2 * (d + ((source_bits ^ flip) << (m - 1))) - (M - 1), overflow


def loop_source_frequencies(config, num_blocks: int, seed: int):
    """empirical_source_frequencies one block at a time: each block is the
    next from default_rng(seed), and each symbol adds its matcher bit to the
    ones and count of the source its folded prefix requests."""
    m, P = config.profile.m, config.profile.num_distinct
    M = 1 << m
    rng = np.random.default_rng(seed)
    ones = np.zeros(P)
    counts = np.zeros(P, dtype=np.int64)
    for _ in range(num_blocks):
        symbols, _ = next_block(config, rng)
        rank = (symbols + (M - 1)) // 2
        d, sign = rank % (M // 2), rank // (M // 2)
        flip = d >= M // 4
        src = np.where(flip, M // 2 - 1 - d, d) // (M // (4 * P))
        bit = 1 - (sign ^ flip)
        for i in range(P):
            ones[i] += int(bit[src == i].sum())
            counts[i] += int(np.count_nonzero(src == i))
    return ones / np.maximum(counts, 1), counts


def dense_plugin_mi(joint: np.ndarray) -> float:
    """Plug-in I(X;Y) of a whole joint histogram of counts, its marginals
    whole counts divided once, summed over the nonzero cells in row order."""
    total = joint.sum()
    mask = joint > 0
    pxy = joint[mask] / total
    outer = np.outer(joint.sum(axis=1) / total, joint.sum(axis=0) / total)
    return float((pxy * np.log2(pxy / outer[mask])).sum())


def loop_simulate_run(config):
    """The Monte Carlo harness one block at a time: encode, add noise,
    decide, and add each block's counts to the statistics. Both modes draw
    their blocks one at a time from one generator on the data seed. The MI
    histogram is the whole M x num_bins joint."""
    from signshape.constellation import selection_tables
    from signshape.shaper import _matcher_bits, _split_symbols
    from signshape.simulate import SimReport, _decide_ranks, _entropy

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
        symbols, overflow = next_block(shaper_cfg, data_rng)
        ranks = _split_symbols(symbols, m)
        x = np.asarray(symbols, dtype=float)

        noise = noise_rng.standard_normal(n)
        y = x + sigma * noise

        decided_ranks = _decide_ranks(y, M)
        symbol_errors += int((decided_ranks != ranks).sum())
        sent_bits = _matcher_bits(ranks, m, flip_table)
        decided_bits = _matcher_bits(decided_ranks, m, flip_table)
        shaping_bit_errors += int((sent_bits != decided_bits).sum())

        np.add.at(sent_counts, ranks, 1)
        energy_sum += float((x * x).sum())
        overflow_total += overflow
        overflow_max = max(overflow_max, overflow)

        if sigma > 0:
            bins = np.floor((y + half_range) / bin_width).astype(np.int64)
            bins = np.clip(bins, 0, num_bins - 1)
            np.add.at(joint, (ranks, bins), 1)

    total = n * config.num_blocks
    pmf = sent_counts / total
    mi = dense_plugin_mi(joint) if sigma > 0 else _entropy(pmf)
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
