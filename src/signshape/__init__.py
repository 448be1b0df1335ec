"""Sign-bit probabilistic shaping for ASK constellations over AWGN.

The package is organised around a shaping profile (per-source probabilities
for the sign bit of a natural-labelled ASK constellation), a fixed-weight
enumerative distribution matcher, mutual information tooling built on
Gauss-Hermite quadrature, a block shaper/deshaper pair, an AWGN Monte Carlo
harness, and an SNR loss budget.
"""

from . import budget, constellation, enumdm, errors, midist, shaper, simulate
from .budget import *  # noqa: F403
from .constellation import *  # noqa: F403
from .enumdm import *  # noqa: F403
from .errors import *  # noqa: F403
from .midist import *  # noqa: F403
from .shaper import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

# each public name is listed once, in its own module's __all__
__all__ = sorted(
    name
    for module in (budget, constellation, enumdm, errors, midist, shaper, simulate)
    for name in module.__all__
)
