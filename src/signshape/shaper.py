"""Sign-bit shaping encoder and decoder, plus the switch overflow analysis.

Per symbol, m-1 uniform prefix bits pick one of P bit sources through the
switch rule; the served bit, complemented and then flipped where the rule
says so, becomes the sign bit. Source i is a word of ones density p_i,
consumed front to back, so low p_i means low weight. The two operating
modes differ in where the words come from:

* ideal-sources: each word is a seeded Bernoulli draw exactly as long as
  the demand for its source, so the switch would serve every request from
  its own source and is skipped: the draws go straight into the slots that
  request the source. Useful for statistical validation.
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
    selection_tables,
)
from .enumdm import DmCode, _bits, dm_code, dm_decode, dm_encode, weight_for
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
_CHUNK_SYMBOLS = 8192  # batch loops take max(1, _CHUNK_SYMBOLS // n) blocks at a time


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


def _assemble(m: int, d: np.ndarray, sign_bits: np.ndarray) -> np.ndarray:
    """Symbols 2r - (M-1) of rank r = d + sign * 2^(m-1), d the prefix value."""
    ranks = d + (sign_bits.astype(np.int64) << (m - 1))
    return 2 * ranks - ((1 << m) - 1)


def encode_block_ideal(config: ShaperConfig) -> ShapedBlock:
    """Encode one block with ideal seeded Bernoulli sources.

    The prefix bits come from config.rng_seed, and so does each source's
    word: ones density p_i, exactly as long as the demand for that source,
    so the switch never overflows.
    """
    if config.mode != "ideal-sources":
        raise ParameterError(f"config mode is {config.mode!r}, not 'ideal-sources'")
    children = np.random.SeedSequence(config.rng_seed).spawn(1 + config.profile.num_distinct)
    prefix_rng, *source_rngs = map(np.random.default_rng, children)
    symbols = _ideal_rows(config, prefix_rng, source_rngs, 1)
    return ShapedBlock(symbols=symbols[0], overflow_count=0, mode=config.mode)


def _ideal_rows(config: ShaperConfig, prefix_rng, source_rngs, count: int) -> np.ndarray:
    """Symbols (count, n) of count ideal-sources blocks, those that one-row
    draws from prefix_rng and the source generators give in turn. The switch
    is skipped, as each source's word exactly meets its demand: its draws go
    straight into the slots that request it."""
    m, n = config.profile.m, config.n
    src_table, flip_table = selection_tables(m, config.profile.num_distinct)
    # a draw per row: one uint8 draw of all the rows buffers its bits differently
    prefix = np.stack([prefix_rng.integers(0, 2, (n, m - 1), np.uint8) for _ in range(count)])
    d = _prefix_decimals(prefix, m)
    requests = src_table[d]
    word_bits = np.empty(d.shape, dtype=np.uint8)
    for i, (rng, p) in enumerate(zip(source_rngs, config.profile.probs)):
        mask = requests == i
        word_bits[mask] = rng.random(np.count_nonzero(mask)) < p
    return _assemble(m, d, (1 - word_bits) ^ flip_table[d])


def encode_block_dm(config: ShaperConfig, info_bits: Sequence[int]) -> ShapedBlock:
    """Encode one block from uniform info bits through the matchers.

    Layout of info_bits: the k_i matcher inputs in source order, then the
    (m-1)*n prefix bits, least significant bit first per symbol.
    """
    if config.mode != "block-dm":
        raise ParameterError(f"config mode is {config.mode!r}, not 'block-dm'")
    info = _bits(info_bits, config.info_length, "info")
    symbols, overflow = _encode_dm_rows(config, info[None].astype(np.uint8, copy=False))
    return ShapedBlock(symbols=symbols[0], overflow_count=int(overflow[0]), mode=config.mode)


def _uniform_info(rng: np.random.Generator, config: ShaperConfig, count: int) -> np.ndarray:
    """Info bits of count blocks as a (count, L) uint8 array, L = info_length.

    One raw draw of ceil(L / 64) 64-bit words per row, unpacked least
    significant bit first. A row reads only its own words, so the rows are
    what count one-row draws would give, one after another.
    """
    L = config.info_length
    raw = rng.bit_generator.random_raw((count, -(-L // 64))).astype("<u8", copy=False)
    return np.unpackbits(raw.view(np.uint8), axis=1, count=L, bitorder="little")


def _encode_dm_rows(config: ShaperConfig, info: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symbols (B, n) and overflow counts (B,) of B blocks, one per row of
    checked uint8 info bits laid out as for encode_block_dm. Each matcher word
    is consumed front to back by the slots the switch has its source serve."""
    m = config.profile.m
    src_table, flip_table = selection_tables(m, config.profile.num_distinct)
    words = []
    offset = 0
    for code in config.dm_codes:
        words.append(np.stack([dm_encode(row, code) for row in info[:, offset : offset + code.k]]))
        offset += code.k
    d = _prefix_decimals(info[:, offset:].reshape(len(info), config.n, -1), m)
    capacities = [code.n for code in config.dm_codes]
    served, overflow = map(np.array, zip(*(_serve_requests(r, capacities) for r in src_table[d])))
    word_bits = np.empty(d.shape, dtype=np.uint8)
    for i, word in enumerate(words):
        mask = served == i
        slots = np.count_nonzero(mask, axis=1)
        if (slots != word.shape[1]).any():
            bad = slots[slots != word.shape[1]][0]
            raise IntegrityError(f"reservoir {i} served {bad} bits, holds {word.shape[1]}")
        word_bits[mask] = word.reshape(-1)  # row by row, chronological order
    return _assemble(m, d, (1 - word_bits) ^ flip_table[d]), overflow


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
    ones = np.zeros(P)
    counts = np.zeros(P, dtype=np.int64)
    rows = max(1, _CHUNK_SYMBOLS // config.n)
    for start in range(0, num_blocks, rows):
        info = _uniform_info(rng, config, min(rows, num_blocks - start))
        _, d, sign_bits = _split_symbols(_encode_dm_rows(config, info)[0], m)
        requested = src_table[d].ravel()
        ones += np.bincount(requested, _matcher_bits(d, sign_bits, flip_table).ravel(), P)
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
    block = ShapedBlock(symbols=symbols, overflow_count=overflow_count, mode=config.mode)
    return block, config
