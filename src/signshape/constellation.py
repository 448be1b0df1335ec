"""ASK constellations, natural bit labelling, and stepwise shaped distributions.

An M-ASK constellation (M = 2^m) uses the odd integers -(M-1), ..., -1, +1,
..., +(M-1) in ascending order. Labels are written least significant bit
first; the decimal value of a full m-bit label equals the rank of its symbol
in that ascending order, and the last bit b_m acts as the sign bit (b_m = 0
selects the negative half). The first m-1 bits form the prefix, of decimal
value d, so the symbol of rank d + b_m 2^(m-1) is 2 rank - (M-1). In the
shaper, `_ranks` alone turns d and a served matcher bit into a rank,
`_matcher_bits` inverts it and `_split_symbols` checks symbols into ranks.

A shaping profile holds the P distinct sign-bit probabilities p_1..p_P.
Convention adopted here (the source material leaves it open): p_i is the
probability that the sign bit is 0 given its prefix group, i.e. the
probability that the symbol lands on the *outer* side of its prefix pair.
With that choice the outermost symbols get the smallest p_i and the bit
streams feeding the switch carry ones with frequency p_i, which keeps the
fixed-weight matchers of low weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError, _integer, _probability

__all__ = [
    "Constellation",
    "ShapingProfile",
    "SymbolDistribution",
    "build_ask",
    "induced_distribution",
    "selection_tables",
]

_MAX_BIT_LEVELS = 16


@dataclass(frozen=True)
class Constellation:
    """M-ASK symbol set with natural labelling, immutable."""

    m: int
    symbols: tuple[int, ...]

    def points(self) -> np.ndarray:
        """Symbols as a float array (new copy each call)."""
        return np.asarray(self.symbols, dtype=float)


def build_ask(m: int) -> Constellation:
    """Build the 2^m-ASK constellation with natural labelling.

    m must lie in [2, 16]; the symbol list is the ascending odd integers
    from -(2^m - 1) to 2^m - 1.
    """
    m = _integer(m, "m", 2, _MAX_BIT_LEVELS)
    M = 1 << m
    symbols = tuple(range(-(M - 1), M, 2))
    return Constellation(m=m, symbols=symbols)


def _sources(m: int, num_distinct: int) -> tuple[int, int]:
    """(m, P) as Python ints, if 2^m-ASK takes P sources: m in [2, 16], P dividing M/4."""
    m = _integer(m, "m", 2, _MAX_BIT_LEVELS)
    quarter = (1 << m) // 4
    P = _integer(num_distinct, "num_distinct", 1, quarter)
    if quarter % P != 0:
        raise ParameterError(f"P = {P} does not divide M/4 = {quarter}")
    return m, P


@dataclass(frozen=True)
class ShapingProfile:
    """Distinct sign-bit probabilities p_1..p_P for a 2^m-ASK.

    P must divide M/4 so that the M/4 negative outer prefix slots split
    into P equal groups of M/(4P) adjacent symbols.
    """

    m: int
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(self.probs)
        object.__setattr__(self, "m", _sources(self.m, len(probs))[0])
        object.__setattr__(self, "probs", tuple(_probability(p, "probabilities") for p in probs))

    @property
    def num_distinct(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class SymbolDistribution:
    """Probability mass function over a constellation plus its mean energy."""

    probabilities: tuple[float, ...]
    average_energy: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.probabilities, dtype=float)
        if arr.size == 0 or np.any(arr < 0):
            raise ParameterError("probabilities must be nonnegative and nonempty")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ParameterError(f"probabilities sum to {arr.sum()!r}, not 1")

    def pmf(self) -> np.ndarray:
        return np.asarray(self.probabilities, dtype=float)


def induced_pmf(m: int, probs: Sequence[float]) -> np.ndarray:
    """Raw induced pmf over the 2^m symbols: the optimizer's unchecked kernel.

    The optimizer, the switch loss and the MI curves call it with checked
    profiles' values; it checks nothing. induced_distribution is the checked
    form, with the mean energy.
    """
    # P(sign bit = 0 | d) for d = 0..M/2-1: each p_i repeated over its
    # group, then the reversed complement, which makes the mirror exact
    outer = np.repeat(np.asarray(probs, dtype=float), ((1 << m) // 4) // len(probs))
    neg = np.concatenate([outer, 1.0 - outer[::-1]]) * 0.5 ** (m - 1)
    return np.concatenate([neg, neg[::-1]])


def _induced_pmf_pullback(m: int, num_distinct: int, dpmf: np.ndarray) -> np.ndarray:
    """induced_pmf backwards: the gradient in the P probabilities of a function
    whose gradient in the pmf is dpmf (induced_pmf is affine in them)."""
    # fold the mirrored halves, then the complemented quarters, then sum each source's group
    half = (dpmf + dpmf[::-1])[: dpmf.size // 2]
    quarter = (half - half[::-1])[: half.size // 2]
    return quarter.reshape(num_distinct, -1).sum(axis=1) * 0.5 ** (m - 1)


def induced_distribution(profile: ShapingProfile) -> SymbolDistribution:
    """Symbol distribution induced by a shaping profile.

    Negative-half symbol of rank d gets its conditional times (1/2)^(m-1);
    the positive half is the structural mirror, so p(x_i) == p(x_{M+1-i})
    holds bit for bit.
    """
    pmf = induced_pmf(profile.m, profile.probs)
    x = build_ask(profile.m).points()
    return SymbolDistribution(tuple(pmf.tolist()), average_energy=float(pmf @ (x * x)))


@lru_cache(maxsize=None, typed=True)  # typed: (5.0, 2) must not find the entry of (5, 2)
def selection_tables(m: int, num_distinct: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-prefix source index (0-based) and flip flag, indexed by d.

    Folding rule: prefixes in the lower quarter read their source straight;
    prefixes in the upper quarter are folded onto M/2 - 1 - d and flipped.
    (m, P) must be a ShapingProfile's. Arrays are cached read-only per (m, P).
    """
    m, num_distinct = _sources(m, num_distinct)
    M = 1 << m
    group = (M // 4) // num_distinct
    d = np.arange(M // 2)
    folded = np.where(d < M // 4, d, M // 2 - 1 - d)
    src = folded // group
    flip = (d >= M // 4).astype(np.uint8)
    src.setflags(write=False)
    flip.setflags(write=False)
    return src, flip

