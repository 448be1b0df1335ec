"""Sign-bit probabilistic shaping for ASK constellations over AWGN.

The package is organised around a shaping profile (per-source probabilities
for the sign bit of a natural-labelled ASK constellation), a fixed-weight
enumerative distribution matcher, mutual information tooling built on
Gauss-Hermite quadrature, a block shaper/deshaper pair, an AWGN Monte Carlo
harness, and an SNR loss budget.
"""

from .budget import BudgetReport, loss_budget
from .constellation import (
    Constellation,
    ShapingProfile,
    SymbolDistribution,
    build_ask,
    induced_distribution,
    induced_pmf,
    profile_to_dict,
    selection_tables,
)
from .enumdm import (
    DmCode,
    binary_entropy,
    dm_code,
    dm_complexity_bound,
    dm_decode,
    dm_encode,
    rank,
    rate_loss,
    unrank,
    unrank_counted,
    weight_for,
)
from .errors import (
    IntegrityError,
    NumericalError,
    OutOfCodebookError,
    ParameterError,
    RangeError,
    ShapingError,
    WeightError,
)
from .midist import (
    MiCurve,
    OptimizationResult,
    awgn_mi,
    mi_curve_for_profile,
    mi_curve_optimized,
    mi_gap_db,
    optimize_profile,
    rate_loss_to_db,
    sigma_for_snr,
    snr_db_for,
)
from .shaper import (
    ShapedBlock,
    ShaperConfig,
    block_from_json,
    block_to_json,
    decode_block,
    effective_probabilities,
    empirical_source_frequencies,
    encode_block_dm,
    encode_block_ideal,
    switch_energy_loss,
    switch_excess_expectation,
)
from .simulate import SimConfig, SimReport, run

__version__ = "0.1.0"

__all__ = [
    "BudgetReport",
    "Constellation",
    "DmCode",
    "IntegrityError",
    "MiCurve",
    "NumericalError",
    "OptimizationResult",
    "OutOfCodebookError",
    "ParameterError",
    "RangeError",
    "ShapedBlock",
    "ShaperConfig",
    "ShapingError",
    "ShapingProfile",
    "SimConfig",
    "SimReport",
    "SymbolDistribution",
    "WeightError",
    "awgn_mi",
    "binary_entropy",
    "block_from_json",
    "block_to_json",
    "build_ask",
    "decode_block",
    "dm_code",
    "dm_complexity_bound",
    "dm_decode",
    "dm_encode",
    "effective_probabilities",
    "empirical_source_frequencies",
    "encode_block_dm",
    "encode_block_ideal",
    "induced_distribution",
    "induced_pmf",
    "loss_budget",
    "mi_curve_for_profile",
    "mi_curve_optimized",
    "mi_gap_db",
    "optimize_profile",
    "profile_to_dict",
    "rank",
    "rate_loss",
    "rate_loss_to_db",
    "run",
    "selection_tables",
    "sigma_for_snr",
    "snr_db_for",
    "switch_energy_loss",
    "switch_excess_expectation",
    "unrank",
    "unrank_counted",
    "weight_for",
]
