"""End-to-end loss budget for the two-source shaping chain.

Three additive dB components at an operating SNR:

* quantization: extra SNR the fixed-profile constellation needs over the
  Gaussian-input capacity 1/2 log2(1 + SNR) at the rate it achieves there;
* matcher: the mean finite-length rate loss of the two length-n/2
  matchers, converted to dB through the local MI-curve slope;
* switch: the overflow energy penalty delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import ShapingProfile
from .enumdm import rate_loss
from .errors import ParameterError
from .midist import mi_curve_for_profile, rate_loss_to_db
from .shaper import switch_energy_loss

__all__ = ["BudgetReport", "loss_budget"]

_CURVE_HALF_SPAN_DB = 2.0
_CURVE_STEP_DB = 0.25


@dataclass(frozen=True)
class BudgetReport:
    snr_db: float
    operating_rate_bpcu: float
    quantization_db: float
    matcher_db: float
    switch_db: float
    total_db: float


def loss_budget(
    m: int,
    p1: float,
    p2: float,
    n: int,
    snr_db: float,
    asymptotic: bool = False,
) -> BudgetReport:
    """Budget for a two-source profile at block length n and the given SNR.

    `asymptotic` zeroes the finite-length components (matcher and switch),
    leaving only the quantization gap.
    """
    profile = ShapingProfile(m=m, probs=(p1, p2))
    if n < 2 or n % 2:
        raise ParameterError(f"n must be even and >= 2, got {n}")
    grid = np.arange(
        snr_db - _CURVE_HALF_SPAN_DB,
        snr_db + _CURVE_HALF_SPAN_DB + 1e-9,
        _CURVE_STEP_DB,
    )
    curve = mi_curve_for_profile(profile, grid)
    rate = curve.rate_at_snr(snr_db)
    capacity_snr_db = 10.0 * math.log10(2.0 ** (2.0 * rate) - 1.0)
    quantization_db = snr_db - capacity_snr_db
    if asymptotic:
        matcher_db = 0.0
        switch_db = 0.0
    else:
        mean_loss = (rate_loss(n // 2, p1) + rate_loss(n // 2, p2)) / 2.0
        matcher_db = rate_loss_to_db(mean_loss, curve, rate)
        switch_db = switch_energy_loss(profile, n)
    return BudgetReport(
        snr_db=float(snr_db),
        operating_rate_bpcu=float(rate),
        quantization_db=float(quantization_db),
        matcher_db=float(matcher_db),
        switch_db=float(switch_db),
        total_db=float(quantization_db + matcher_db + switch_db),
    )
