"""Enumerative fixed-weight distribution matcher.

Maps k uniform bits to binary words of length n and Hamming weight w, where
k is the largest integer with 2^k <= C(n, w). A word c_1..c_n has rank

    i(c) = sum over positions k with c_k = 1 of C(n - k, w_k),

w_k being the weight of the suffix starting at position k (Cover,
"Enumerative source encoding", 1973). Rank 0 is the word with all ones
packed at the end; ranks grow toward ones packed at the front. Unranking
puts the one with r ones left at the largest t below the previous one's
with C(t, r) <= remainder, probing t = start, start - 1, ... from a start
never below that answer. The walks of a word's ones so cover disjoint
ranges and a word takes at most n probes: about one per output bit on
dense words and, from `_walk_start`'s estimate, about one per one on
sparse words.

No binomial table is stored: a matcher is four integers, n, w, k and
C(n, w), and one module table of ln t!, grown to the longest matcher
unranked so far, serves every matcher. A probe decides C(t, r) <= remainder
by comparing ln t! - ln (t - r)! with ln remainder + ln r!, stepping on
while the left side is above the right by more than a tie margin. Where
the walk stops, the exact binomial the next one needs anyway settles the
one probe that can fall inside the margin. The exact binomials the walks
and rank need are carried from one one to the next by ratios of falling
factorials, so every index and word is exactly that of a Pascal-table walk.
For long, dense words rank combines the ratios of a run of ones first and
divides its long running term once per run rather than once per one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import IntegrityError, ParameterError

__all__ = [
    "DmCode",
    "dm_code",
    "weight_for",
    "rank",
    "unrank",
    "unrank_counted",
    "dm_encode",
    "dm_decode",
    "rate_loss",
    "dm_complexity_bound",
]


def weight_for(n: int, p: float) -> int:
    """Target weight round(n*p), ties rounding half up, for 0 <= p <= 1."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    return int(math.floor(n * p + 0.5))


# Longest matcher dm_code builds: the tie margin below is shown for lengths
# up to here, and one unrank at p = 0.24 already takes about 0.6 s.
MAX_MATCHER_LENGTH = 1 << 16

# Half-width, in ln units, of the band in which a probe falls back to exact
# integers. A probe sums three ln t! values (lgamma, within about 1e-10 each
# at t = MAX_MATCHER_LENGTH) and one math.log, so its float error stays below
# 1e-9, two orders of magnitude inside the band. Neighbouring C(t, r) and
# C(t + 1, r) differ by at least ln(1 + 1/n) > 1.5e-5, so at most one probe
# per walk lands in the band.
_TIE = 1e-7

# A walk starts next to the previous one while upper < _DENSE * r, else at
# _walk_start's estimate, which costs about ten probes: the two take equal
# time near p = 0.1 (CPython 3.11, x86-64, n in {128, 1024, 4096}).
_DENSE = 8
# Far above _walk_start's float error (below 2e-10 against 200-bit
# arithmetic), so rounding never puts a start below its answer.
_START_SLACK = 1e-4

# rank batches a run of ones into one exact division of the long term when
# terms are long (k >= _RUN_MIN_K bits) and ones are dense (mean gap at most
# _RUN_MIN_GAP), closing a run once its denominator passes 2^_RUN_BITS.
# Measured with CPython 3.11 on x86-64: 10-40% faster there, and up to 30%
# slower on short terms or sparse words, whose single ratios already span
# several machine words.
_RUN_MIN_K = 2048
_RUN_MIN_GAP = 5
_RUN_BITS = 512


@dataclass(frozen=True)
class DmCode:
    """One fixed-weight matcher: length n, weight w, input size k.

    `num_words` is C(n, w) exactly. The ln t! values the unranking probes
    compare in live in one module table shared by every matcher.
    """

    n: int
    w: int
    k: int
    num_words: int = field(repr=False)


@lru_cache(maxsize=64)
def dm_code(n: int, w: int) -> DmCode:
    """Build (and cache) the matcher for length n and weight w."""
    if not 1 <= n <= MAX_MATCHER_LENGTH:
        raise ParameterError(f"n must be in [1, {MAX_MATCHER_LENGTH}], got {n}")
    if not 0 <= w <= n:
        raise ParameterError(f"w must be in [0, {n}], got {w}")
    num_words = math.comb(n, w)
    return DmCode(n=n, w=w, k=num_words.bit_length() - 1, num_words=num_words)


# ln t! for t < len, at most MAX_MATCHER_LENGTH + 1 floats shared by every
# matcher. Growing replaces the tuple rather than extending it in place, so
# a caller that checked the tuple it holds can index it whatever others do.
_log_factorials: tuple[float, ...] = ()


def _log_factorial_table(n: int) -> tuple[float, ...]:
    """The shared ln t! table, grown first if it stops short of t = n."""
    global _log_factorials
    table = _log_factorials
    if len(table) <= n:
        table = tuple(math.lgamma(t + 1) for t in range(n + 1))
        _log_factorials = table
    return table


def _bits(values: Sequence[int], size: int, name: str) -> np.ndarray:
    """values as a 1-D array of size zeros and ones, in their own dtype.

    A uint8 array is checked with one max; anything else is compared as it
    is, before any cast, so 0.5 and -1 are refused rather than read as 0.
    """
    bits = np.asarray(values)
    if bits.ndim != 1 or bits.size != size:
        raise ParameterError(f"{name} must have length {size}, got shape {bits.shape}")
    if bits.max(initial=0) > 1 if bits.dtype == np.uint8 else not ((bits == 0) | (bits == 1)).all():
        raise ParameterError(f"{name} elements must be 0 or 1")
    return bits


def rank(word: Sequence[int], code: DmCode) -> int:
    """Index of a weight-w word in [0, C(n, w)); other weights raise IntegrityError."""
    bits = _bits(word, code.n, "word")
    weight = int(bits.sum())
    if weight != code.w:
        raise IntegrityError(f"word has weight {weight}, matcher requires {code.w}")
    n, w = code.n, code.w
    ones = np.flatnonzero(bits)
    ones = ones[ones - np.arange(w) < n - w]  # ones packed at the end add 0
    # The one at t = n - 1 - position with suffix weight r adds C(t, r),
    # which is C(u, r + 1) * a / b for the previous one's u, with
    # a = (r + 1) * perm(u - r - 1, g - 1), b = perm(u, g) and g = u - t.
    # Before the first one, C(n, w + 1) * (w + 1) = C(n, w) * (n - w).
    t = n - 1 - ones
    u = np.append(n, t[:-1])
    r = np.arange(w, w - ones.size, -1)
    nums = map(operator.mul, np.append(n - w, r[:-1]).tolist(),
               map(math.perm, (u - r - 1).tolist(), (u - t - 1).tolist()))
    dens = map(math.perm, u.tolist(), (u - t).tolist())
    total, term = 0, code.num_words
    if code.k < _RUN_MIN_K or _RUN_MIN_GAP * w < n:
        for a, b in zip(nums, dens):
            term = term * a // b
            total += term
        return total
    # Over a run of ones the terms are term * num_i / den_i with short
    # num_i, den_i; Horner's rule keeps their sum as term * acc / den, so
    # the long term is divided once per run instead of once per one.
    num, den, acc = 1, 1, 0
    for a, b in zip(nums, dens):
        num *= a
        acc = acc * b + num
        den *= b
        if den >> _RUN_BITS:
            total, term = _close_run(total, term, num, den, acc)
            num, den, acc = 1, 1, 0
    return _close_run(total, term, num, den, acc)[0]


def _close_run(total: int, term: int, num: int, den: int, acc: int) -> tuple[int, int]:
    """(total + term * acc / den, term * num / den), both exact, from one
    division of the long term by the short den."""
    q, rem = divmod(term, den)
    return total + q * acc + rem * acc // den, q * num + rem * num // den


def _walk_start(bound: float, r: int) -> float:
    """A number at or above the largest t with ln t! - ln (t - r)! <= bound.

    Write m = exp(bound / r) and a = (r - 1) / 2. Every factor of
    C(t, r) r! = t (t - 1) ... (t - r + 1) is at least t - r + 1, so that t
    is at most m + 2a. Pairing the factors around t - a and using
    ln(1 - x) >= -x / (1 - x) gives
    ln C(t, r) r! >= r ln(t - a) - r (r^2 - 1) / (24 ((t - a)^2 - a^2)),
    so once m > a that t is also at most m exp((r^2 - 1) / (24 (m^2 - a^2)))
    + a. This second bound is the smaller one wherever m^2 - a^2 exceeds
    (r^2 - 1) / 12. It rounds down to the answer or one above it wherever
    the answer is at least 5 r (checked for every r <= 8192 and answer
    below MAX_MATCHER_LENGTH, at both ends of each answer's remainders).
    """
    a = (r - 1) / 2
    m = math.exp(bound / r)
    c = (r * r - 1) / 24
    q = m * m - a * a
    return m * math.exp(c / q) + a if q > 2 * c else m + 2 * a


def unrank_counted(index: int, code: DmCode) -> tuple[np.ndarray, int]:
    """Unrank with an instrumented comparison counter.

    Returns (word, comparisons), where comparisons is the number of
    binomial-versus-remainder probes the walks made: per one, every t from
    the walk's start down to the one it stops at; once the remainder is 0
    the ones left are packed at the end without a probe.
    """
    if not isinstance(index, int) or isinstance(index, bool):
        raise ParameterError(f"index must be an integer, got {index!r}")
    # an index may have more digits than str() converts: report its size
    if not 0 <= index < code.num_words:
        size = "negative" if index < 0 else f"{index.bit_length()}-bit"
        raise ParameterError(f"{size} index outside [0, C({code.n}, {code.w}))")
    n, log_fact = code.n, _log_factorial_table(code.n)
    ones = []
    rem = index
    upper = n  # exclusive bound on t: the previous one's t
    # term * factor == C(upper, r + 1) * (r + 1), so that with g = upper - t
    # C(t, r) = term * factor * perm(upper - r - 1, g - 1) / perm(upper, g):
    # one multiply and one exact division of a big integer per one
    term, factor = code.num_words, n - code.w
    comparisons = 0
    for r in range(code.w, 0, -1):
        if not rem:
            ones.extend(range(n - r, n))
            break
        # C(t, r) <= rem  <=>  ln t! - ln (t - r)! <= ln rem + ln r!
        bound = math.log(rem) + log_fact[r]
        start = upper - 1
        if upper >= _DENSE * r:
            start = min(start, int(_walk_start(bound, r) + _START_SLACK))
        # Each probe is one float comparison; the walk passes every t whose
        # C(t, r) is surely above rem and stops at the first that may not
        # be, at some t >= r since rem >= 1 = C(r, r). The exact C(t, r),
        # needed anyway as the next term, settles that probe: only one in
        # the tie band can be above rem after all, and then the next t down
        # is surely not, one more probe.
        high = bound + _TIE
        t = start
        while log_fact[t] - log_fact[t - r] > high:
            t -= 1
        comparisons += start - t + 1
        g = upper - t
        term = term * (factor * math.perm(upper - r - 1, g - 1)) // math.perm(upper, g)
        if term > rem:
            term = term * (t - r) // t  # C(t - 1, r)
            t -= 1
            comparisons += 1
        factor = r
        rem -= term
        ones.append(n - 1 - t)
        upper = t
    if rem != 0:  # every index in range decomposes: a fault in the walk
        raise IntegrityError(f"{index.bit_length()}-bit index has no weight-{code.w} decomposition")
    bits = np.zeros(n, dtype=np.uint8)
    bits[ones] = 1
    return bits, comparisons


def unrank(index: int, code: DmCode) -> np.ndarray:
    """The unique word with rank(word, code) == index."""
    return unrank_counted(index, code)[0]


def dm_encode(info_bits: Sequence[int], code: DmCode) -> np.ndarray:
    """Map k uniform bits (least significant first) to a fixed-weight word."""
    bits = _bits(info_bits, code.k, "info")
    packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
    return unrank(int.from_bytes(packed.tobytes(), "little"), code)


def dm_decode(word: Sequence[int], code: DmCode) -> np.ndarray:
    """Recover the k info bits of an encoder output.

    Weight-valid words whose rank is >= 2^k were never produced by
    dm_encode and raise IntegrityError.
    """
    value = rank(word, code)
    if value >> code.k:
        raise IntegrityError(
            f"{value.bit_length()}-bit rank >= 2^{code.k}; word is outside the encoder image"
        )
    packed = np.frombuffer(value.to_bytes((code.k + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=code.k, bitorder="little")


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)))


def rate_loss(n: int, p: float) -> float:
    """Gap H(p) - k/n between the ideal and the finite-length matcher rate.

    k is that of dm_code(n, w), so n is capped at MAX_MATCHER_LENGTH.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0, 1), got {p}")
    code = dm_code(n, weight_for(n, p))
    if code.w < 1:
        raise ParameterError(f"round({n}*{p}) = 0; no ones to place")
    return _binary_entropy(p) - code.k / n


def dm_complexity_bound(n: int, p: float) -> float:
    """Upper bound on unranking probes per output bit, for any index: 1,
    as a length-n word takes at most n probes, or 0 when p = 0."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    return 1.0 if p > 0.0 else 0.0
