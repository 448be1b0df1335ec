"""Exception hierarchy shared by the whole package.

Every error raised on purpose derives from ShapingError so callers can
catch one base class. The CLI maps the branches to distinct exit codes.
"""

__all__ = [
    "IntegrityError",
    "NumericalError",
    "OutOfCodebookError",
    "ParameterError",
    "RangeError",
    "ShapingError",
    "WeightError",
]


class ShapingError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ShapingError, ValueError):
    """Invalid argument: out of range, wrong size, bad combination."""


class WeightError(ShapingError, ValueError):
    """A fixed-weight word does not have the required Hamming weight."""


class RangeError(ShapingError, ValueError):
    """An index lies outside the codebook range of its matcher."""


class IntegrityError(ShapingError, RuntimeError):
    """Internal consistency violated: corrupted block, broken replay."""


class OutOfCodebookError(IntegrityError):
    """A weight-valid word whose rank is not reachable by the encoder."""


class NumericalError(ShapingError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""
