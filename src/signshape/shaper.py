"""Sign-bit shaping encoder and decoder, plus the switch overflow analysis.

Blocks and configs live in memory only; the block file that `shape encode`
writes and `shape decode` reads is the command line's own format (`cli`).

Per symbol, m-1 uniform prefix bits pick one of P bit sources through the
switch rule; the served bit, complemented and then flipped where the rule
says so, becomes the sign bit. Source i is a word of ones density p_i,
consumed front to back, so low p_i means low weight. The two operating
modes differ in where the words come from:

* ideal-sources: each slot draws its own Bernoulli(p_i) bit for the source
  i it requests, so every source's word is exactly as long as its demand,
  the switch would serve every request from its own source and is skipped.
  Useful for statistical validation.
* block-dm: each word is a fixed-weight matcher output of length n/P.
  When a requested reservoir is empty the switch falls back to the lowest
  indexed nonempty one and counts the event as an overflow.

Both modes draw a block from one seeding rule: block b of seed s is the
b-th run of raw 64-bit words from default_rng(s) (`_block_chunks`). The
stream unranks the words of many blocks at once; a single block takes the
matcher's walk, which is faster for one word.

The decoder replays the same consumption state machine from the decoded
prefix bits, so it needs no side channel. The replay construction (and its
fallback bookkeeping) is this implementation's choice; only the encoder
side rule is externally given. A served bit becomes a rank r, symbol 2r - (M-1),
only in `_ranks`; `_split_symbols` reads symbols back to ranks, `_matcher_bits` ranks to bits.

Overflow perturbs the served bit statistics. For P = 2 the expected excess
demand is eps(n) = (n/4) C(n, n/2) 2^-n, the effective densities are
p1' = p1 + (2 eps / n)(p2 - p1) and symmetrically for p2', and the energy
penalty is delta = 10 log10(E'/E) with E' the induced energy under the
effective densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .constellation import (
    Constellation,
    ShapingProfile,
    build_ask,
    induced_pmf,
    selection_tables,
)
from .enumdm import MAX_MATCHER_LENGTH, DmCode, _bits, dm_code, dm_decode, dm_encode, weight_for
from .errors import IntegrityError, ParameterError, _integer, _probability

__all__ = [
    "ShaperConfig",
    "ShapedBlock",
    "encode_block_ideal",
    "encode_block_dm",
    "decode_block",
    "switch_excess_expectation",
    "effective_probabilities",
    "switch_energy_loss",
    "empirical_source_frequencies",
]

_MODES = ("ideal-sources", "block-dm")
_CHUNK_SYMBOLS = 16384  # _block_chunks yields max(1, _CHUNK_SYMBOLS // n) blocks at a time
_DRAW_SYMBOLS = 1 << 18  # and unranks the words of whole chunks up to this many symbols at once


@dataclass(frozen=True)
class ShaperConfig:
    """Immutable description of one shaping chain instance."""

    profile: ShapingProfile
    n: int
    rng_seed: int = 0
    mode: str = "block-dm"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        # numpy's generators take no negative seed
        object.__setattr__(self, "rng_seed", _integer(self.rng_seed, "rng_seed", 0))
        object.__setattr__(self, "n", _integer(self.n, "n", 2))
        P = self.profile.num_distinct
        # one cap in both modes, checked before the two tests that write n out
        _integer(self.n // P, "n / P", high=MAX_MATCHER_LENGTH)
        if self.n % 2:
            raise ParameterError(f"n must be even, got {self.n}")
        if self.n % P:
            raise ParameterError(f"n = {self.n} not divisible by P = {P}")

    @cached_property
    def constellation(self) -> Constellation:
        return build_ask(self.profile.m)

    @cached_property
    def dm_codes(self) -> tuple[DmCode, ...]:
        """One matcher per source, each of length n/P and weight from p_i."""
        length = self.n // self.profile.num_distinct
        return tuple(
            dm_code(length, weight_for(length, p)) for p in self.profile.probs
        )

    @property
    def info_length(self) -> int:
        """Bits consumed by encode_block_dm: matcher inputs then prefixes."""
        return sum(code.k for code in self.dm_codes) + (self.profile.m - 1) * self.n


@dataclass(eq=False)
class ShapedBlock:
    """One encoded block; the symbol array is a frozen copy of the one given."""

    symbols: np.ndarray
    overflow_count: int

    def __post_init__(self) -> None:
        self.symbols = _integers(self.symbols).copy()  # the caller's array stays writeable
        self.symbols.setflags(write=False)


def _prefix_decimals(prefix: np.ndarray, m: int) -> np.ndarray:
    """Decimal value d of each row of least-significant-bit-first prefix bits."""
    # d < 2^15 is exact in float32, whose product BLAS runs: 3x faster than in int64
    weights = (1 << np.arange(m - 1)).astype(np.float32)
    return (prefix.astype(np.float32) @ weights).astype(np.int64)


def _prefix_bits(d: np.ndarray, m: int) -> np.ndarray:
    """The m-1 prefix bits of each d, least significant first, one row each."""
    pairs = d.astype("<u2").view(np.uint8).reshape(-1, 2)  # d < 2^15: two bytes each
    return np.unpackbits(pairs, axis=1, count=m - 1, bitorder="little")


def _integers(symbols) -> np.ndarray:
    """symbols as an int64 array; IntegrityError unless their dtype is a signed integer."""
    arr = np.asarray(symbols)
    if arr.dtype.kind != "i":
        raise IntegrityError("block contains values that are not integers")
    return arr.astype(np.int64, copy=False)


def _split_symbols(symbols, m: int) -> np.ndarray:
    """Ranks r of 2^m-ASK symbols 2r - (M-1); IntegrityError unless every value is an
    integer constellation point, i.e. an odd integer in [-(M-1), M-1]."""
    M = 1 << m
    shifted = _integers(symbols) + (M - 1)
    # zero exactly when shifted is even and in [0, 2M), i.e. a rank times 2
    if np.any(shifted & -(2 * M - 1)):
        raise IntegrityError("block contains values outside the constellation")
    return shifted >> 1


def _ranks(d: np.ndarray, bits: np.ndarray, m: int, flip_table: np.ndarray) -> np.ndarray:
    """Ranks d + s 2^(m-1), s each served matcher bit complemented, flipped by flip_table[d]."""
    return d + (((1 - bits) ^ flip_table[d]).astype(np.int64) << (m - 1))


def _matcher_bits(ranks: np.ndarray, m: int, flip_table: np.ndarray) -> np.ndarray:
    """The matcher bit each rank's symbol consumed; inverts _ranks."""
    d = ranks & ((1 << (m - 1)) - 1)
    return 1 - ((ranks >> (m - 1)).astype(np.uint8) ^ flip_table[d])


def _serve_requests(
    requests: np.ndarray, capacities: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Which reservoir serves each request of rows (..., n), one per block,
    and each row's overflow count.

    A request takes a bit from its own reservoir while that lasts, else from
    the absorber: the lowest-indexed reservoir with bits left. At P = 2, in
    one pass over all rows, that is the other reservoir from a row's first
    request for a dry one on. Otherwise, row by row: until it absorbs, a
    reservoir serves only its own requests, so the ones it turns away are
    known up front. Each absorber, in one pass, serves those and the
    requests for the reservoirs below it until it runs dry.
    """
    n = requests.shape[-1]
    if n != sum(capacities):
        raise IntegrityError(
            f"demand {n} != supply {int(sum(capacities))}; cannot serve"
        )
    P = len(capacities)
    rows = requests.reshape(-1, n).astype(np.int64, copy=False)
    if P == 2:
        # At most one reservoir runs dry, the one asked for more than it holds. Narrow
        # temporaries: five int64 ones made glibc regrow the heap per n = 8192 decode, +7%.
        ones = np.cumsum(rows, axis=1, dtype=np.int32)
        zeros_dry = ones < np.arange(1 - capacities[0], n + 1 - capacities[0], dtype=np.int32)
        served = np.where((ones > capacities[1]) | zeros_dry, ones[:, -1:] <= capacities[1], rows)
        overflow = np.abs(ones[:, -1] - capacities[1])  # the requests past the dry one's size
    else:
        served = rows.copy()
        for row, out in zip(rows, served):
            counts = np.bincount(row, minlength=P)
            over = (counts > capacities).nonzero()[0]
            if not over.size:  # every reservoir holds just its own requests
                continue
            turned = np.full(P, n)  # each source's first request its own reservoir turns away
            # in a stable (radix) sort of the row, s's requests start at counts[:s].sum()
            order = np.argsort(row.astype(np.min_scalar_type(P - 1)), kind="stable")
            turned[over] = order[(np.cumsum(counts) - counts + capacities)[over]]
            late = turned[row] <= np.arange(n)  # turned away by its own reservoir
            start = turned.min()
            done = np.bincount(row[:start], minlength=P)
            for k in range(P):
                left = capacities[k] - done[k]  # so far k served only its own requests
                if left <= 0:
                    continue
                if left == n - start:  # it holds every bit left: supply equals demand
                    out[start:] = k
                    break
                tail = row[start:]
                stream = start + ((tail <= k) | late[start:]).nonzero()[0]
                out[stream[:left]] = k
                if stream.size == left:
                    break
                done += np.bincount(tail[: stream[left] - start], minlength=P)
                start = stream[left]
        overflow = np.count_nonzero(served != rows, axis=1)
    return served.reshape(requests.shape), overflow.reshape(requests.shape[:-1])


def encode_block_ideal(config: ShaperConfig) -> ShapedBlock:
    """Encode one block with ideal seeded Bernoulli sources: block 0 of the
    stream seeded by config.rng_seed. The switch never overflows."""
    if config.mode != "ideal-sources":
        raise ParameterError(f"config mode is {config.mode!r}, not 'ideal-sources'")
    ranks, _, _ = next(_block_chunks(config, config.rng_seed, 1))
    return ShapedBlock(symbols=2 * ranks[0] - ((1 << config.profile.m) - 1), overflow_count=0)


def _ideal_rows(config: ShaperConfig, rng: np.random.Generator, count: int) -> tuple:
    """Ranks and matcher bits (count, n) of count ideal-sources blocks, one raw draw
    of n + ceil((m-1) n / 64) 64-bit words per row. A row's first n words are
    the doubles rng.random would make of them, one per slot, its matcher bit
    1 where the double is below p of the source its prefix requests; the
    rest are its prefix bits, unpacked as by _uniform_info. The switch is
    skipped, as each source's word exactly meets its demand."""
    m, n = config.profile.m, config.n
    src_table, flip_table = selection_tables(m, config.profile.num_distinct)
    raw = rng.bit_generator.random_raw((count, n + -(-(m - 1) * n // 64)))
    d = _prefix_decimals(_raw_bits(raw[:, n:], (m - 1) * n).reshape(count, n, m - 1), m)
    bits = (raw[:, :n] >> 11) * 2.0**-53 < np.asarray(config.profile.probs)[src_table[d]]
    bits = bits.view(np.uint8)
    return _ranks(d, bits, m, flip_table), bits


def encode_block_dm(config: ShaperConfig, info_bits: Sequence[int]) -> ShapedBlock:
    """Encode one block from uniform info bits through the matchers.

    Layout of info_bits: the k_i matcher inputs in source order, then the
    (m-1)*n prefix bits, least significant bit first per symbol.
    """
    if config.mode != "block-dm":
        raise ParameterError(f"config mode is {config.mode!r}, not 'block-dm'")
    info = _bits(info_bits, config.info_length, "info")
    codes = config.dm_codes
    ends = [0, *accumulate(code.k for code in codes)]
    ones = [np.flatnonzero(dm_encode(info[a:b], c))[None] for c, a, b in zip(codes, ends, ends[1:])]
    ranks, _, overflow = _encode_dm_rows(config, info[None, ends[-1] :], ones)
    return ShapedBlock(2 * ranks[0] - ((1 << config.profile.m) - 1), int(overflow[0]))


def _raw_bits(raw: np.ndarray, stop: int, start: int = 0) -> np.ndarray:
    """Bits start to stop - 1 of each row of 64-bit words, least significant
    bit of the first word first, as a uint8 array."""
    skip = start // 64
    words = np.ascontiguousarray(raw[:, skip : -(-stop // 64)], dtype="<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=stop - 64 * skip, bitorder="little")
    return bits[:, start - 64 * skip :]


def _uniform_info(rng: np.random.Generator, config: ShaperConfig, count: int) -> np.ndarray:
    """Info bits of count blocks as a (count, L) uint8 array, L = info_length,
    from one raw draw of ceil(L / 64) 64-bit words per row."""
    L = config.info_length
    return _raw_bits(rng.bit_generator.random_raw((count, -(-L // 64))), L)


# Largest code, in n (w + 1) binomials, whose words _unrank_rows finds in a
# table, which holds at most 0.17 MB (n = 105, w = 77; tracemalloc over every
# code under the cap), so the cache at most 11 MB: n = 256 at m = 5
# (length-128 matchers, 768 and 4096 entries) fits, n = 8192 keeps the walk.
# Under the cap k <= 141 (n = 174, w = 46), so an index fits three 64-bit words.
_TABLE_CAP = 1 << 13
_CLIP = (1 << 63) - 1  # int64 columns are clipped here, above every remainder they meet


@lru_cache(maxsize=64)
def _binomial_columns(code: DmCode) -> tuple:
    """The columns C(t, r), t < n, for r = w down to 1, built by ratios along t. The
    leading steps, whose remainder can reach 2^63 - 1, get (steps, n) arrays: a float64
    guide and the low and high 64-bit words of each binomial mod 2^128; the first
    `huge` of them meet remainders that can reach 2^128. The rest get int64 arrays
    clipped at _CLIP. Returns (huge, guide, low, high, int64 columns)."""
    # C(t, r) = C(t - 1, r) t / (t - r); at r = n one entry past t = n - 1, never found
    columns = [
        [0] * r + list(accumulate(range(r + 1, code.n), lambda c, t: c * t // (t - r), initial=1))
        for r in range(code.w, 0, -1)
    ]
    # the step placing the one with r ones left meets a remainder below 2^k and,
    # after the first step, below C(n - 1, r) too, so below the least of these
    bounds = list(accumulate([1 << code.k] + [column[-1] for column in columns[1:]], min))
    huge, big = (sum(bound >> bits > 0 for bound in bounds) for bits in (128, 63))
    head = np.array(columns[:big], object).reshape(big, code.n)  # Python ints
    words = [(head >> shift & (1 << 64) - 1).astype(np.uint64) for shift in (0, 64)]
    small = [np.array([min(c, _CLIP) for c in col], np.int64) for col in columns[big:]]
    return huge, head.astype(float), *words, small


def _unrank_rows(code: DmCode, bits: np.ndarray) -> np.ndarray:
    """Positions (B, w) int32, ascending, of the ones of code's words from rows of k info
    bits, least significant first: over _TABLE_CAP one dm_encode walk per word; under it
    one table search for all rows, and the walk for each row it cannot vouch for.

    Step j puts t_j at the largest t with C(t, r) <= remainder, r = w - j. On the leading
    columns the remainder mod 2^128 is carried exactly in two wrapping words, beside a
    float64 estimate g, never refreshed; the guide picks t from g while the remainder can
    reach 2^128, then from the words. g stays within 2^110 of the exact remainder R (every
    index and binomial under the cap is below 2^141), so if the high word is 0, the low
    one is in [0, _CLIP) and |g| < 2^126, R is the low word: they agree mod 2^128 and
    differ by less than 2^127. The int64 steps are then exact, and a final remainder of 0
    with n > t_0 > ... > t_{w-1} >= 0 is the index's unique combinatorial-number-system
    form (Cover, 1973): the walk's word."""
    if code.n * (code.w + 1) > _TABLE_CAP:
        return np.array([np.flatnonzero(dm_encode(row, code)) for row in bits], np.int32)
    huge, guide, low, high, small = _binomial_columns(code)
    words = np.zeros((len(bits), 3), "<u8")  # the index, least significant word first
    words.view(np.uint8)[:, : -(-code.k // 8)] = np.packbits(bits, axis=1, bitorder="little")
    lo, hi = words[:, 0].copy(), words[:, 1].copy()
    g = words @ [1.0, 2.0**64, 2.0**128]
    ts = np.empty((len(bits), code.w), np.int32)
    for j in range(len(guide)):
        ts[:, j] = t = guide[j].searchsorted(g if j < huge else lo + hi * 2.0**64, side="right") - 1
        g -= guide[j, t]
        c = low[j, t]
        hi -= high[j, t] + (lo < c)  # both words wrap, so the pair is exact mod 2^128
        lo -= c
    rem = lo.view(np.int64)
    vouched = (hi == 0) & (rem >= 0) & (rem < _CLIP) & (np.abs(g) < 2.0**126)
    for j, column in enumerate(small, len(guide)):  # the largest t with C(t, r) <= rem
        ts[:, j] = t = column.searchsorted(rem, side="right") - 1
        rem -= column[t]
    # t < n always, and t >= 0 on a vouched row's int64 steps, which include the last
    vouched &= (rem == 0) & (ts[:, 1:] < ts[:, :-1]).all(axis=1)
    positions = code.n - 1 - ts
    for b in np.flatnonzero(~vouched):
        positions[b] = np.flatnonzero(dm_encode(bits[b], code))
    return positions


def _encode_dm_rows(config: ShaperConfig, prefix: np.ndarray, ones: Sequence[np.ndarray]) -> tuple:
    """Ranks (B, n), served matcher bits (B, n) uint8 and overflow counts (B,) of B blocks
    from their rows of (m - 1) n prefix bits, laid out as in encode_block_dm, and per
    matcher the positions (B, w) of the ones of their words: one _serve_requests call for
    all B, then each word's ones set at the slots that serve it, consumed front to back."""
    B, n, m = len(prefix), config.n, config.profile.m
    src_table, flip_table = selection_tables(m, config.profile.num_distinct)
    codes = config.dm_codes
    d = _prefix_decimals(prefix.reshape(B, n, m - 1), m)
    served, overflow = _serve_requests(src_table[d], [code.n for code in codes])
    rows = np.arange(B)[:, None]
    bits = np.zeros(d.shape, dtype=np.uint8)
    for i, (code, positions) in enumerate(zip(codes, ones)):
        slots = np.flatnonzero(served == i)  # row by row, chronological order
        # given the total, each row holds code.n slots iff its first and last lie in it
        if slots.size != B * code.n or (slots.reshape(B, -1)[:, [0, -1]] // n != rows).any():
            raise IntegrityError(f"reservoir {i} served other than its {code.n} bits")
        bits.reshape(-1)[np.take_along_axis(slots.reshape(B, -1), positions, axis=1)] = 1
    return _ranks(d, bits, m, flip_table), bits, overflow


def _block_chunks(config: ShaperConfig, seed: int | np.random.SeedSequence, num_blocks: int):
    """The num_blocks blocks seeded by seed (an int or a SeedSequence), as
    (ranks (B, n), served matcher bits (B, n) uint8, overflow (B,)) chunks of
    B = max(1, _CHUNK_SYMBOLS // n) blocks, the last one partial; rank r is symbol
    2r - (M-1). Row b of the stream is the b-th run of raw 64-bit words from
    default_rng(seed): block-dm reads them as info bits, ideal-sources as slot doubles
    and prefix bits. A row reads only its own words, so a chunk holds the blocks
    one-row draws give in turn. Block-dm draws the words of whole chunks, up to
    _DRAW_SYMBOLS symbols, at once and unranks each matcher's words of the draw in one
    _unrank_rows call; vectorized, the table search only pays over many rows."""
    rng = np.random.default_rng(seed)
    n, L = config.n, config.info_length
    rows = max(1, _CHUNK_SYMBOLS // n)
    if config.mode != "block-dm":
        for start in range(0, num_blocks, rows):
            count = min(rows, num_blocks - start)
            yield *_ideal_rows(config, rng, count), np.zeros(count, np.int64)
        return
    codes = config.dm_codes
    ends = [0, *accumulate(code.k for code in codes)]
    draw = max(1, _DRAW_SYMBOLS // n // rows) * rows
    for start in range(0, num_blocks, draw):
        raw = rng.bit_generator.random_raw((min(draw, num_blocks - start), -(-L // 64)))
        ones = [_unrank_rows(c, _raw_bits(raw, b, a)) for c, a, b in zip(codes, ends, ends[1:])]
        for first in range(0, len(raw), rows):
            chunk = slice(first, first + rows)
            prefix = _raw_bits(raw[chunk], L, ends[-1])
            yield _encode_dm_rows(config, prefix, [positions[chunk] for positions in ones])


def decode_block(block: ShapedBlock, config: ShaperConfig) -> np.ndarray:
    """Invert encode_block_dm on noiseless symbols.

    Replays the switch from the decoded prefixes, reassembles each matcher
    word in consumption order, checks its weight, and unranks. Corruption
    surfaces as IntegrityError: an impossible symbol, a wrong weight, or a
    weight-valid word outside the encoder image.
    Detection is best effort: a corrupted block that is itself a valid
    encoding (negating a symbol always is, since the folded pair shares a
    source and the matcher bit is sign-invariant) decodes silently to
    different info bits.
    """
    if config.mode != "block-dm":
        raise ParameterError(f"config mode is {config.mode!r}, not 'block-dm'")
    m = config.profile.m
    if block.symbols.size != config.n:
        raise ParameterError(f"block has {block.symbols.size} symbols, config n = {config.n}")
    ranks = _split_symbols(block.symbols, m)
    d = ranks & ((1 << (m - 1)) - 1)
    codes = config.dm_codes
    src_table, flip_table = selection_tables(m, config.profile.num_distinct)
    served, _ = _serve_requests(src_table[d], [c.n for c in codes])
    matcher_bits = _matcher_bits(ranks, m, flip_table)

    chunks = [dm_decode(matcher_bits[np.flatnonzero(served == i)], c) for i, c in enumerate(codes)]
    chunks.append(_prefix_bits(d, m).reshape(-1))
    return np.concatenate(chunks)


def switch_excess_expectation(n: int) -> float:
    """Expected overflow demand eps(n) = E[max(K - n/2, 0)], K ~ Bin(n, 1/2).

    Closed form (n/4) C(n, n/2) 2^-n as a running double-precision product:
    exact at n = 2 and 4, within 3.3e-15 relative of the exact rational for
    every even n <= 4096, and well under 1e-9 through n = 2^20. The product
    takes O(n) memory, so n is capped at that 2^20.
    """
    n = _integer(n, "n", 2, 1 << 20)
    if n % 2:
        raise ParameterError(f"n must be even, got {n}")
    i = np.arange(1, n // 2 + 1, dtype=float)
    central = float(np.prod((2.0 * i - 1.0) / (2.0 * i)))  # C(n, n/2) / 2^n
    return n / 4.0 * central


def effective_probabilities(p1: float, p2: float, n: int) -> tuple[float, float]:
    """Served-bit densities after overflow mixing; the sum is conserved."""
    p1, p2 = _probability(p1, "p1"), _probability(p2, "p2")
    fraction = 2.0 * switch_excess_expectation(n) / _integer(n, "n")  # the checked n as an int
    p1_eff = p1 + fraction * (p2 - p1)
    return p1_eff, (p1 + p2) - p1_eff


def switch_energy_loss(profile: ShapingProfile, n: int) -> float:
    """Energy penalty 10 log10(E'/E) of overflow, two-source profiles only."""
    if profile.num_distinct != 2:
        raise ParameterError("switch energy analysis is defined for exactly two sources")
    p1, p2 = profile.probs
    p1_eff, p2_eff = effective_probabilities(p1, p2, n)
    m = profile.m
    x = build_ask(m).points()
    energy = float(induced_pmf(m, (p1, p2)) @ (x * x))
    energy_eff = float(induced_pmf(m, (p1_eff, p2_eff)) @ (x * x))
    return 10.0 * math.log10(energy_eff / energy)


def empirical_source_frequencies(
    config: ShaperConfig, num_blocks: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Measured matcher-bit ones density per *requested* source.

    Encodes num_blocks random blocks and pools, for every source index i,
    the served matcher bits of the symbols whose switch rule requested i.
    Returns (frequencies, counts). Ideal sources converge to the p_i; under
    block-dm overflow the frequencies converge to the effective densities.
    """
    num_blocks, seed = _integer(num_blocks, "num_blocks", 1), _integer(seed, "seed", 0)
    m, P = config.profile.m, config.profile.num_distinct
    src_table, _ = selection_tables(m, P)
    ones = np.zeros(P)
    counts = np.zeros(P, dtype=np.int64)
    for ranks, bits, _ in _block_chunks(config, seed, num_blocks):
        requested = src_table[ranks & ((1 << (m - 1)) - 1)].ravel()
        ones += np.bincount(requested, bits.ravel(), P)
        counts += np.bincount(requested, minlength=P)
    return ones / np.maximum(counts, 1), counts

