"""Sign-bit shaping encoder and decoder, plus the switch overflow analysis.

Per symbol, m-1 uniform prefix bits pick one of P bit sources through the
switch rule; the served bit, complemented and then flipped where the rule
says so, becomes the sign bit. Source i is a word of ones density p_i,
consumed front to back, so low p_i means low weight. The two operating
modes share this switch and differ only in where the words come from:

* ideal-sources: each word is a seeded Bernoulli draw exactly as long as
  the demand for its source, so the switch never overflows. Useful for
  statistical validation.
* block-dm: each word is a fixed-weight matcher output of length n/P.
  When a requested reservoir is empty the switch falls back to the lowest
  indexed nonempty one and counts the event as an overflow.

The decoder replays the same consumption state machine from the decoded
prefix bits, so it needs no side channel. The replay construction (and its
fallback bookkeeping) is this implementation's choice; only the encoder
side rule is externally given. Symbols are read back only through
`_split_symbols`, the checked inverse of `_assemble`.

Overflow perturbs the served bit statistics. For P = 2 the expected excess
demand is eps(n) = (n/4) C(n, n/2) 2^-n, the effective densities are
p1' = p1 + (2 eps / n)(p2 - p1) and symmetrically for p2', and the energy
penalty is delta = 10 log10(E'/E) with E' the induced energy under the
effective densities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .constellation import (
    Constellation,
    ShapingProfile,
    build_ask,
    induced_pmf,
    profile_to_dict,
    selection_tables,
)
from .enumdm import DmCode, dm_code, dm_decode, dm_encode, weight_for
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
    """One encoded block; the symbol array is frozen after construction."""

    symbols: np.ndarray
    overflow_count: int
    mode: str

    def __post_init__(self) -> None:
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        self.symbols.setflags(write=False)


def _prefix_decimals(prefix: np.ndarray, m: int) -> np.ndarray:
    """Decimal value d of each row of least-significant-bit-first prefix bits."""
    weights = (1 << np.arange(m - 1)).astype(np.int64)
    return prefix.astype(np.int64) @ weights


def _prefix_bits(d: np.ndarray, m: int) -> np.ndarray:
    """The m-1 prefix bits of each d, least significant first, one row each."""
    return ((d[:, None] >> np.arange(m - 1)) & 1).astype(np.uint8)


def _split_ranks(ranks: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix d (the low m-1 label bits) and sign bit (the last) of each rank."""
    return ranks & ((1 << (m - 1)) - 1), (ranks >> (m - 1)).astype(np.uint8)


def _split_symbols(symbols, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranks, prefixes d and sign bits of 2^m-ASK symbols; inverts _assemble.

    Raises IntegrityError unless every value is an integer constellation
    point, i.e. an odd integer in [-(M-1), M-1].
    """
    arr = np.asarray(symbols)
    if arr.dtype.kind != "i":
        raise IntegrityError("block contains values that are not integers")
    M = 1 << m
    shifted = arr.astype(np.int64, copy=False) + (M - 1)
    # zero exactly when shifted is even and in [0, 2M), i.e. a rank times 2
    if np.any(shifted & -(2 * M - 1)):
        raise IntegrityError("block contains values outside the constellation")
    ranks = shifted >> 1
    return (ranks, *_split_ranks(ranks, m))


def _matcher_bits(d: np.ndarray, sign_bits: np.ndarray, flip_table: np.ndarray) -> np.ndarray:
    """The matcher bit each symbol consumed: its unflipped sign bit, complemented."""
    return 1 - (sign_bits ^ flip_table[d])


def _serve_requests(
    requests: np.ndarray, capacities: Sequence[int]
) -> tuple[np.ndarray, int]:
    """Which reservoir serves each request, plus the overflow count.

    A request takes a bit from its own reservoir while that lasts, else from
    the absorber: the lowest-indexed reservoir with bits left. Until it
    absorbs, a reservoir serves only its own requests, so the ones it turns
    away are known up front. Each absorber, in one pass, serves those and
    the requests for the reservoirs below it until it runs dry.
    """
    n = requests.size
    if n != sum(capacities):
        raise IntegrityError(
            f"demand {n} != supply {int(sum(capacities))}; cannot serve"
        )
    P = len(capacities)
    served = requests.astype(np.int64)
    turned = np.full(P, n)  # each source's first request its own reservoir turns away
    for s in (np.bincount(requests, minlength=P) > capacities).nonzero()[0]:
        turned[s] = (requests == s).nonzero()[0][capacities[s]]
    start = turned.min()
    done = np.bincount(requests[:start], minlength=P)
    for k in range(P):
        left = capacities[k] - done[k]  # so far k served only its own requests
        if left <= 0:
            continue
        if left == n - start:  # it holds every bit left: supply equals demand
            served[start:] = k
            break
        tail = requests[start:]
        stream = start + ((tail <= k) | (turned[tail] <= np.arange(start, n))).nonzero()[0]
        served[stream[:left]] = k
        if stream.size == left:
            break
        done += np.bincount(tail[: stream[left] - start], minlength=P)
        start = stream[left]
    return served, int(np.count_nonzero(served != requests))


def _assemble(
    config: ShaperConfig, d: np.ndarray, sign_bits: np.ndarray, overflow: int
) -> ShapedBlock:
    """Block of the symbols 2r - (M-1) of rank r = d + sign * 2^(m-1), d the prefix value."""
    ranks = d + (sign_bits.astype(np.int64) << (config.profile.m - 1))
    symbols = 2 * ranks - ((1 << config.profile.m) - 1)
    return ShapedBlock(symbols=symbols, overflow_count=overflow, mode=config.mode)


def _serve_words(
    config: ShaperConfig, d: np.ndarray, words: Sequence[np.ndarray]
) -> ShapedBlock:
    """Block whose sign bits come from the source words through the switch.

    Each word is consumed front to back by the slots its source serves; the
    sign bit is the complement of the consumed bit, flipped per prefix d.
    """
    src_table, flip_table = selection_tables(config.profile.m, config.profile.num_distinct)
    served, overflow = _serve_requests(src_table[d], [word.size for word in words])
    word_bits = np.empty(config.n, dtype=np.uint8)
    for i, word in enumerate(words):
        slots = np.flatnonzero(served == i)
        if slots.size != word.size:
            raise IntegrityError(
                f"reservoir {i} served {slots.size} bits, holds {word.size}"
            )
        word_bits[slots] = word  # chronological consumption order
    sign_bits = (1 - word_bits) ^ flip_table[d]
    return _assemble(config, d, sign_bits, overflow)


def encode_block_ideal(config: ShaperConfig) -> ShapedBlock:
    """Encode one block with ideal seeded Bernoulli sources.

    The prefix bits come from config.rng_seed, and so does each source's
    word: ones density p_i, exactly as long as the demand for that source,
    so the switch never overflows.
    """
    if config.mode != "ideal-sources":
        raise ParameterError(f"config mode is {config.mode!r}, not 'ideal-sources'")
    m = config.profile.m
    P = config.profile.num_distinct
    children = np.random.SeedSequence(config.rng_seed).spawn(1 + P)
    prefix_rng, *source_rngs = (np.random.default_rng(c) for c in children)
    prefix = prefix_rng.integers(0, 2, size=(config.n, m - 1), dtype=np.uint8)
    d = _prefix_decimals(prefix, m)
    demand = np.bincount(selection_tables(m, P)[0][d], minlength=P)
    words = [
        rng.random(count) < p
        for rng, count, p in zip(source_rngs, demand, config.profile.probs)
    ]
    return _serve_words(config, d, words)


def encode_block_dm(config: ShaperConfig, info_bits: Sequence[int]) -> ShapedBlock:
    """Encode one block from uniform info bits through the matchers.

    Layout of info_bits: the k_i matcher inputs in source order, then the
    (m-1)*n prefix bits, least significant bit first per symbol.
    """
    if config.mode != "block-dm":
        raise ParameterError(f"config mode is {config.mode!r}, not 'block-dm'")
    info = np.asarray(info_bits)
    if info.ndim != 1 or info.size != config.info_length:
        raise ParameterError(
            f"info must have {config.info_length} bits, got {info.size}"
        )
    # checked before the cast, which would read 0.5 as 0 and overflow on -1
    if not ((info == 0) | (info == 1)).all():
        raise ParameterError("info elements must be 0 or 1")
    info = info.astype(np.uint8, copy=False)
    words = []
    offset = 0
    for code in config.dm_codes:
        words.append(dm_encode(info[offset : offset + code.k], code))
        offset += code.k
    m = config.profile.m
    d = _prefix_decimals(info[offset:].reshape(config.n, m - 1), m)
    return _serve_words(config, d, words)


def decode_block(block: ShapedBlock, config: ShaperConfig) -> np.ndarray:
    """Invert encode_block_dm on noiseless symbols.

    Replays the switch from the decoded prefixes, reassembles each matcher
    word in consumption order, checks its weight, and unranks. Corruption
    surfaces as IntegrityError (wrong weight, impossible symbol) or
    OutOfCodebookError (weight-valid word outside the encoder image).
    Detection is best effort: a corrupted block that is itself a valid
    encoding (negating a symbol always is, since the folded pair shares a
    source and the matcher bit is sign-invariant) decodes silently to
    different info bits.
    """
    if config.mode != "block-dm":
        raise ParameterError(f"config mode is {config.mode!r}, not 'block-dm'")
    if block.mode != "block-dm":
        raise ParameterError(f"block mode is {block.mode!r}, not 'block-dm'")
    m = config.profile.m
    if block.symbols.size != config.n:
        raise ParameterError(f"block has {block.symbols.size} symbols, config n = {config.n}")
    _, d, sign_bits = _split_symbols(block.symbols, m)

    codes = config.dm_codes
    src_table, flip_table = selection_tables(m, config.profile.num_distinct)
    served, _ = _serve_requests(src_table[d], [c.n for c in codes])
    matcher_bits = _matcher_bits(d, sign_bits, flip_table)

    chunks = []
    for i, code in enumerate(codes):
        word = matcher_bits[np.flatnonzero(served == i)]
        weight = int(word.sum())
        if weight != code.w:
            raise IntegrityError(
                f"reservoir {i} reassembled with weight {weight}, expected {code.w}"
            )
        chunks.append(dm_decode(word, code))
    chunks.append(_prefix_bits(d, m).reshape(-1))
    return np.concatenate(chunks)


def switch_excess_expectation(n: int) -> float:
    """Expected overflow demand eps(n) = E[max(K - n/2, 0)], K ~ Bin(n, 1/2).

    Closed form (n/4) C(n, n/2) 2^-n as a running double-precision product:
    exact at n = 2 and 4, within 3.3e-15 relative of the exact rational for
    every even n <= 4096, and well under 1e-9 through n = 2^20.
    """
    if n < 2 or n % 2:
        raise ParameterError(f"n must be even and >= 2, got {n}")
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
        raise ParameterError(
            "switch energy analysis is defined for exactly two sources"
        )
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
    Returns (frequencies, counts). Under overflow these converge to the
    effective densities rather than the raw p_i.
    """
    if config.mode != "block-dm":
        raise ParameterError("frequency measurement requires block-dm mode")
    m = config.profile.m
    P = config.profile.num_distinct
    src_table, flip_table = selection_tables(m, P)
    rng = np.random.default_rng(seed)
    ones = np.zeros(P, dtype=np.int64)
    counts = np.zeros(P, dtype=np.int64)
    for _ in range(num_blocks):
        info = rng.integers(0, 2, size=config.info_length, dtype=np.uint8)
        block = encode_block_dm(config, info)
        _, d, sign_bits = _split_symbols(block.symbols, m)
        matcher_bits = _matcher_bits(d, sign_bits, flip_table)
        requested = src_table[d]
        for i in range(P):
            mask = requested == i
            ones[i] += int(matcher_bits[mask].sum())
            counts[i] += int(mask.sum())
    return ones / np.maximum(counts, 1), counts


def block_to_json(block: ShapedBlock, config: ShaperConfig) -> str:
    return json.dumps(
        {
            "header": {
                **profile_to_dict(config.profile),
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
    block = ShapedBlock(symbols=symbols, overflow_count=overflow_count, mode=config.mode)
    return block, config
