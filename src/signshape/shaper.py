"""Sign-bit shaping encoder and decoder, plus the switch overflow analysis.

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
b-th run of raw 64-bit words from default_rng(s) (`_block_chunks`).

The decoder replays the same consumption state machine from the decoded
prefix bits, so it needs no side channel. The replay construction (and its
fallback bookkeeping) is this implementation's choice; only the encoder
side rule is externally given. A served bit becomes a rank r, symbol 2r - (M-1),
only in `_ranks`; `_split_symbols` and `_matcher_bits` read the symbols back.

Overflow perturbs the served bit statistics. For P = 2 the expected excess
demand is eps(n) = (n/4) C(n, n/2) 2^-n, the effective densities are
p1' = p1 + (2 eps / n)(p2 - p1) and symmetrically for p2', and the energy
penalty is delta = 10 log10(E'/E) with E' the induced energy under the
effective densities.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
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
from .errors import IntegrityError, ParameterError

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
    "block_to_json",
    "block_from_json",
]

_MODES = ("ideal-sources", "block-dm")
_CHUNK_SYMBOLS = 8192  # _block_chunks yields max(1, _CHUNK_SYMBOLS // n) blocks at a time


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
        P = self.profile.num_distinct
        if self.n < 2 or self.n % 2:
            raise ParameterError(f"n must be even and >= 2, got {self.n}")
        if self.n % P:
            raise ParameterError(f"n = {self.n} not divisible by P = {P}")
        # one cap in both modes: a matcher's length, or an ideal source's share
        if self.n // P > MAX_MATCHER_LENGTH:
            raise ParameterError(f"n / P = {self.n // P} > {MAX_MATCHER_LENGTH}, the length cap")

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
    weights = (1 << np.arange(m - 1)).astype(np.int64)
    return prefix.astype(np.int64) @ weights


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
    ranks, _, overflow = _encode_dm_rows(config, info[None].astype(np.uint8, copy=False))
    return ShapedBlock(2 * ranks[0] - ((1 << config.profile.m) - 1), int(overflow[0]))


def _raw_bits(raw: np.ndarray, length: int) -> np.ndarray:
    """The first length bits of each row of 64-bit words, least significant
    bit of the first word first, as a uint8 array."""
    words = np.ascontiguousarray(raw, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=1, count=length, bitorder="little")


def _uniform_info(rng: np.random.Generator, config: ShaperConfig, count: int) -> np.ndarray:
    """Info bits of count blocks as a (count, L) uint8 array, L = info_length,
    from one raw draw of ceil(L / 64) 64-bit words per row."""
    L = config.info_length
    return _raw_bits(rng.bit_generator.random_raw((count, -(-L // 64))), L)


# Largest code, in n (w + 1) binomials, whose words _encode_dm_rows unranks
# from a table, which holds at most 0.25 MB (n = 210, w = 38; tracemalloc over
# every code under the cap), so the cache at most 16 MB: n = 256 at m = 5
# (length-128 matchers, 768 and 4096 entries) fits, n = 8192 keeps the walk.
_TABLE_CAP = 1 << 13


@lru_cache(maxsize=64)
def _binomial_columns(code: DmCode) -> tuple:
    """The columns C(t, r), t < n, for r = w down to 1, built by ratios along t: Python-int
    lists while a step's remainder can reach 2^63 - 1, then int64 arrays clipped there."""
    # C(t, r) = C(t - 1, r) t / (t - r); at r = n one entry past t = n - 1, never found
    columns = [
        [0] * r + list(accumulate(range(r + 1, code.n), lambda c, t: c * t // (t - r), initial=1))
        for r in range(code.w, 0, -1)
    ]
    # the step placing the one with r ones left meets a remainder below 2^k and,
    # after the first step, below C(n - 1, r) too, so below the least of these
    bounds = accumulate([1 << code.k] + [column[-1] for column in columns[1:]], min)
    big = sum(bound >> 63 > 0 for bound in bounds)
    clip = (1 << 63) - 1  # above every remainder of the int64 steps
    return columns[:big], [np.array([min(c, clip) for c in col], np.int64) for col in columns[big:]]


def _unrank_rows(code: DmCode, bits: np.ndarray) -> np.ndarray:
    """Positions (B, w), ascending, of the ones of code's words from rows of k info bits,
    least significant first: under _TABLE_CAP a table search per one, row by row until the
    remainder fits int64, then for all rows at once; over it one dm_encode walk per word."""
    if code.n * (code.w + 1) > _TABLE_CAP:
        return np.stack([np.flatnonzero(dm_encode(row, code)) for row in bits])
    big, small = _binomial_columns(code)
    ts = np.empty((len(bits), code.w), dtype=np.int64)
    if big:
        lead = []  # row by row, t on each of the big columns, then the remainder
        for row in np.packbits(bits, axis=1, bitorder="little"):
            rem, t = int.from_bytes(row.tobytes(), "little"), code.n
            for column in big:  # the largest t below the last with C(t, r) <= rem
                t = bisect_right(column, rem, 0, t) - 1
                rem -= column[t]
                lead.append(t)
            lead.append(rem)
        lead = np.array(lead, dtype=np.int64).reshape(len(bits), -1)
        ts[:, : len(big)], rem = lead[:, :-1], lead[:, -1]
    else:
        rem = bits.astype(np.int64) @ (1 << np.arange(code.k, dtype=np.int64))
    for j, column in enumerate(small, len(big)):  # the largest t with C(t, r) <= rem
        ts[:, j] = t = column.searchsorted(rem, side="right") - 1
        rem -= column[t]
    return code.n - 1 - ts


def _encode_dm_rows(config: ShaperConfig, info: np.ndarray) -> tuple:
    """Ranks (B, n), served matcher bits (B, n) uint8 and overflow counts (B,) of B blocks,
    one per row of checked uint8 info bits laid out as for encode_block_dm: one
    _serve_requests call for all B, then per matcher one _unrank_rows call whose ones are
    set at the slots that serve it, each word consumed front to back."""
    B, n, m = len(info), config.n, config.profile.m
    src_table, flip_table = selection_tables(m, config.profile.num_distinct)
    codes = config.dm_codes
    ends = np.cumsum([0] + [code.k for code in codes])
    d = _prefix_decimals(info[:, ends[-1] :].reshape(B, n, -1), m)
    served, overflow = _serve_requests(src_table[d], [code.n for code in codes])
    rows = np.arange(B)[:, None]
    bits = np.zeros(d.shape, dtype=np.uint8)
    for i, (code, a, b) in enumerate(zip(codes, ends, ends[1:])):
        slots = np.flatnonzero(served == i)  # row by row, chronological order
        # given the total, each row holds code.n slots iff its first and last lie in it
        if slots.size != B * code.n or (slots.reshape(B, -1)[:, [0, -1]] // n != rows).any():
            raise IntegrityError(f"reservoir {i} served other than its {code.n} bits")
        ones = _unrank_rows(code, info[:, a:b])
        bits.reshape(-1)[np.take_along_axis(slots.reshape(B, -1), ones, axis=1)] = 1
    return _ranks(d, bits, m, flip_table), bits, overflow


def _block_chunks(config: ShaperConfig, seed: int | np.random.SeedSequence, num_blocks: int):
    """The num_blocks blocks seeded by seed (an int or a SeedSequence), as
    (ranks (B, n), served matcher bits (B, n) uint8, overflow (B,)) chunks of
    B = max(1, _CHUNK_SYMBOLS // n) blocks, the last one partial; rank r is symbol
    2r - (M-1). Row b of the stream is the b-th run of raw 64-bit words from
    default_rng(seed): block-dm reads them as info bits, ideal-sources as slot doubles
    and prefix bits. A row reads only its own words, so a chunk holds the blocks
    one-row draws give in turn."""
    rng = np.random.default_rng(seed)
    rows = max(1, _CHUNK_SYMBOLS // config.n)
    for start in range(0, num_blocks, rows):
        count = min(rows, num_blocks - start)
        if config.mode == "block-dm":
            yield _encode_dm_rows(config, _uniform_info(rng, config, count))
        else:
            yield *_ideal_rows(config, rng, count), np.zeros(count, np.int64)


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
    if n < 2 or n % 2 or n > 1 << 20:
        raise ParameterError(f"n must be even and in [2, {1 << 20}], got {n}")
    i = np.arange(1, n // 2 + 1, dtype=float)
    central = float(np.prod((2.0 * i - 1.0) / (2.0 * i)))  # C(n, n/2) / 2^n
    return n / 4.0 * central


def effective_probabilities(p1: float, p2: float, n: int) -> tuple[float, float]:
    """Served-bit densities after overflow mixing; the sum is conserved."""
    for p in (p1, p2):
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"probabilities must lie in [0, 1], got {p}")
    fraction = 2.0 * switch_excess_expectation(n) / n
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
    if num_blocks < 1:
        raise ParameterError(f"num_blocks must be >= 1, got {num_blocks}")
    m, P = config.profile.m, config.profile.num_distinct
    src_table, _ = selection_tables(m, P)
    ones = np.zeros(P)
    counts = np.zeros(P, dtype=np.int64)
    for ranks, bits, _ in _block_chunks(config, seed, num_blocks):
        requested = src_table[ranks & ((1 << (m - 1)) - 1)].ravel()
        ones += np.bincount(requested, bits.ravel(), P)
        counts += np.bincount(requested, minlength=P)
    return ones / np.maximum(counts, 1), counts


def block_to_json(block: ShapedBlock, config: ShaperConfig) -> str:
    return json.dumps(
        {
            "header": {
                "m": config.profile.m,
                "P": config.profile.num_distinct,
                "probs": list(config.profile.probs),
                "n": config.n,
                "mode": config.mode,
                "seed": config.rng_seed,
            },
            "symbols": [int(s) for s in block.symbols],
            "overflow_count": int(block.overflow_count),
        }
    )


def block_from_json(text: str) -> tuple[ShapedBlock, ShaperConfig]:
    """Inverse of block_to_json: a bad document or header raises
    ParameterError, a payload that is not n constellation points
    IntegrityError."""
    try:
        doc = json.loads(text)
        header = doc["header"]
        profile = ShapingProfile(
            m=int(header["m"]),
            probs=tuple(float(p) for p in header["probs"]),
        )
        if len(profile.probs) != int(header["P"]):
            raise ParameterError("header P does not match probs length")
        config = ShaperConfig(
            profile=profile,
            n=int(header["n"]),
            rng_seed=int(header["seed"]),
            mode=str(header["mode"]),
        )
        symbols = np.asarray(doc["symbols"])
        overflow_count = int(doc.get("overflow_count", 0))
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed block document: {exc}") from None
    if symbols.shape != (config.n,):
        raise IntegrityError("block payload does not match its header")
    # numpy reads [1, true] as two integers, so a bool must be caught here
    if any(isinstance(s, bool) for s in doc["symbols"]):
        raise IntegrityError("block contains values that are not integers")
    _split_symbols(symbols, config.profile.m)  # raises on non-points
    return ShapedBlock(symbols=symbols, overflow_count=overflow_count), config
