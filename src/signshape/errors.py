"""Exception hierarchy shared by the whole package, and its three argument rules.

Every error raised on purpose derives from ShapingError so callers can
catch one base class. The CLI exits 2, 3 and 4 on the three branches below, in order.
`_integer` checks every size, count, seed, index and order, `_probability` every
probability, and `_real` every noise level, SNR, energy and rate.
"""

import math
import operator
from numbers import Real

__all__ = [
    "IntegrityError",
    "NumericalError",
    "ParameterError",
    "ShapingError",
]


class ShapingError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ShapingError, ValueError):
    """Invalid argument: out of range, wrong size, bad combination."""


class IntegrityError(ShapingError, RuntimeError):
    """Consistency violated: a corrupted block or word, a broken replay."""


class NumericalError(ShapingError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


def _shown(x) -> str:
    """repr(x), or the size of an integer past 2^64: str() refuses more than 4300 digits."""
    if isinstance(x, int) and abs(x) >> 64:
        return f"a {x.bit_length()}-bit {'negative' if x < 0 else 'positive'} integer"
    return repr(x)


def _integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value as a Python int, if a Python or numpy integer (no bool) in [low, high], None open."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not ((low is None or low <= number) and (high is None or number <= high)):
        bound = (f">= {_shown(low)}" if high is None else f"<= {_shown(high)}" if low is None
                 else f"in [{_shown(low)}, {_shown(high)}]")
        raise ParameterError(f"{name} must be {bound}, got {_shown(number)}")
    return number


def _probability(p, name: str) -> float:
    """p as a float, if it is a real number (not a bool) in [0, 1], which NaN is not."""
    if isinstance(p, bool) or not (isinstance(p, Real) and 0.0 <= p <= 1.0):
        raise ParameterError(f"{name} must lie in [0, 1], got {_shown(p)}")
    return float(p)


def _real(value, name: str, low: float = -math.inf, closed: bool = False) -> float:
    """value as a float, if a finite real number (no bool, no NaN) above low, or at low if closed."""
    if type(value) is float and low < value < math.inf:
        return value
    try:  # NaN stands for what is no real number, inf for an integer beyond float's range
        number = math.nan if isinstance(value, bool) or not isinstance(value, Real) else float(value)
    except OverflowError:
        number = math.inf
    if not (low < number < math.inf or closed and number == low):
        bound = "" if low == -math.inf else f" {'>=' if closed else '>'} {low:g}"
        raise ParameterError(f"{name} must be a finite real number{bound}, got {_shown(value)}")
    return number
