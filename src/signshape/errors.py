"""Exception hierarchy shared by the whole package.

Every error raised on purpose derives from ShapingError so callers can
catch one base class. The CLI exits 2, 3 and 4 on the three branches below, in order.
"""

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
