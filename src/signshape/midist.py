"""Mutual information of discrete-input AWGN channels and profile optimization.

MI is evaluated with Gauss-Hermite quadrature (64 nodes by default) on

    I(X;Y) = sum_i p_i E[ -t^2/ln2 - log2 sum_j p_j exp(-(z_i - z_j + sqrt2 t)^2 / 2) ]

with z = x / sigma, which is exact up to quadrature error and never leaves
the linear domain (all exponents are nonpositive). awgn_mi takes equally
spaced alphabets (every ASK): its sums over j and their exact gradient
(grad=True) are products of one Toeplitz band matrix with one exp table.

SNR convention: SNR = E[X^2] / sigma^2 with the *shaped* distribution's
energy. Curves over SNR therefore compare distributions at equal SNR, not
equal noise. optimize_profile exposes both views: a fixed noise_std
maximizes MI at that noise level (where shaping can only lower the energy,
so near-uniform profiles win), while a fixed snr_db rescales the noise to
each candidate's energy and recovers the shaped optima the curves show.
Either way the search is one projected quasi-Newton run over the box
[0, 1]^P of sign-bit probabilities, on that exact gradient carried through
induced_pmf, and stops at L-BFGS-B's default tolerances. The module needs
numpy alone: the optimizer is _minimize_on_box, and the MiCurve lookups use
a numpy monotone cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .constellation import ShapingProfile, build_ask, induced_pmf
from .errors import NumericalError, ParameterError

__all__ = [
    "MiCurve",
    "OptimizationResult",
    "awgn_mi",
    "sigma_for_snr",
    "snr_db_for",
    "optimize_profile",
    "mi_curve_for_profile",
    "mi_curve_optimized",
    "mi_gap_db",
    "rate_loss_to_db",
]

_LN2 = math.log(2.0)
_SLOPE_HALF_STEP_DB = 0.25
_MI_CAP_BYTES = 256 << 20
# Widest point set awgn_mi takes, in noise standard deviations
_MI_MAX_SPAN = 1e150
# _minimize_on_box keeps L-BFGS-B's default memory and stops at its default
# tolerances on the projected gradient and the relative decrease of a step,
# or after _MAX_ITERATIONS steps; one search halves t at most _MAX_HALVINGS times
_MEMORY = 10
_PGTOL = 1e-5
_FTOL = 2.2e-9
_MAX_ITERATIONS = 100
_MAX_HALVINGS = 30


@lru_cache(maxsize=8)
def _quadrature(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = hermgauss(order)
    weights = weights / math.sqrt(math.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def sigma_for_snr(energy: float, snr_db: float) -> float:
    """Noise standard deviation that puts `energy` at the given SNR; one that
    is not a positive float (beyond about +-3080 dB) raises ParameterError."""
    if energy <= 0:
        raise ParameterError(f"energy must be positive, got {energy}")
    if not math.isfinite(snr_db):
        raise ParameterError(f"snr_db must be finite, got {snr_db}")
    try:
        sigma = math.sqrt(energy / 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma = 0.0
    if not 0 < sigma < math.inf:
        raise ParameterError(f"an SNR of {snr_db} dB has no positive finite noise level")
    return sigma


def snr_db_for(energy: float, noise_std: float) -> float:
    if not (0 < energy < math.inf and 0 < noise_std < math.inf):
        raise ParameterError("energy and noise_std must be positive and finite")
    return 10.0 * math.log10(energy / (noise_std * noise_std))


def awgn_mi(
    x: Sequence[float],
    pmf: Sequence[float],
    noise_std: float,
    order: int = 64,
    *,
    grad: bool = False,
):
    """I(X;Y) in bits per channel use for a finite, equally spaced alphabet.

    Other point sets raise ParameterError; a single point has spacing 0.
    With grad=True the result is (mi, dmi/dpmf, dmi/dnoise_std), taken from
    the same quadrature sums, with the pmf entries as free variables.

    With M points, K = order and w = 2 with grad (1 without), the M x 2M
    band buffer, the (2M-1) x wK exp table, the M x wK denominator, their
    temporaries and the vectors peak below 8 (2 M^2 + (w + 3)(2M - 1) K +
    (w + 4) M K) bytes + 16 KiB. Where that passes 256 MB (4096-ASK at
    order 64) ParameterError is raised before allocating anything, which
    also bounds the work, about 2 M^2 K multiply-adds (3x that with grad).
    """
    xs = np.asarray(x, dtype=float)
    p = np.asarray(pmf, dtype=float)
    if xs.ndim != 1 or xs.shape != p.shape:
        raise ParameterError("x and pmf must be 1-D arrays of equal length")
    if not (p.min(initial=0.0) >= 0 and abs(float(p.sum()) - 1.0) <= 1e-9):  # NaN fails
        raise ParameterError("pmf must be nonnegative and sum to 1")
    if not 0 < noise_std < math.inf:
        raise ParameterError(f"noise_std must be positive and finite, got {noise_std}")
    if not order >= 1:
        raise ParameterError(f"order must be >= 1, got {order}")
    M, w = xs.size, 2 if grad else 1
    # np.allclose(diff(z), step, 1e-12, 1e-12), 7x faster; with z[0] finite
    # it fails every NaN or inf point, so inf - inf may go quietly to NaN
    with np.errstate(invalid="ignore", over="ignore"):
        z = xs / noise_std
        step = float(z[1] - z[0]) if M > 1 else 0.0
        spread = np.abs(np.diff(z) - step).max(initial=0.0)
    if not (math.isfinite(z[0]) and spread <= 1e-12 * (1.0 + abs(step))):
        raise ParameterError("x must be finite and equally spaced")
    # the kernel squares (M - 1) * step plus a node and multiplies it by
    # (M - 1) * step, which overflows once that passes about 1.3e154
    if abs(step) * (M - 1) > _MI_MAX_SPAN:
        raise ParameterError(
            f"x spans {abs(step) * (M - 1):.3g} noise standard deviations, "
            f"above the {_MI_MAX_SPAN:.0e} the quadrature can square"
        )
    need = 8 * (2 * M * M + (w + 3) * (2 * M - 1) * order + (w + 4) * M * order) + (16 << 10)
    if need > _MI_CAP_BYTES:
        raise ParameterError(
            f"awgn_mi needs {need >> 20} MB for M = {M} at order {order}, "
            f"above its {_MI_CAP_BYTES >> 20} MB cap"
        )
    nodes, weights = _quadrature(order)
    shift = math.sqrt(2.0) * nodes
    # z_i - z_j = r[i - j + M - 1] takes only 2M-1 values, so
    # den = band @ table with band[i, i - j + M - 1] = p_j. The band is an
    # (M, 2M) buffer read in rows of 2M - 1, which shifts row i right by i:
    # column c < M of the buffer is the band's diagonal c.
    r = np.arange(-(M - 1), M, dtype=float)[:, None] * step
    u = r + shift
    arg = -0.5 * u * u
    # flushing entries below e^-460 to 0 changes no den_ik, which holds
    # p_i e^-t_k^2 (t_k^2 < 115 at order 64), and keeps slow denormals
    # out of the products
    table = np.zeros((2 * M - 1, w * order))
    np.exp(arg, out=table[:, :order], where=arg > -460.0)
    if grad:
        # d table / d noise_std = table u r / noise_std
        np.multiply(table[:, :order], u * r, out=table[:, order:])
    buf = np.zeros((M, 2 * M))
    buf[:, :M] = p[::-1]
    band = buf.ravel()[: M * (2 * M - 1)].reshape(M, 2 * M - 1)
    den = band @ table
    dden, den = den[:, order:], np.maximum(den[:, :order], 1e-300)
    per_symbol = ((-nodes * nodes)[None, :] - np.log(den)) @ weights
    mi = float(p @ per_symbol) / _LN2
    if not math.isfinite(mi):
        raise NumericalError("mutual information evaluation produced a non-finite value")
    if not grad:
        return mi
    q = p[:, None] * (weights / den)
    # d den_ik / d p_j is on the band's diagonal M - 1 - j: sum each diagonal
    np.matmul(q, table[:, :order].T, out=band)
    dpmf = (per_symbol - buf[:, :M].sum(axis=0)[::-1]) / _LN2
    dsigma = -float(np.vdot(q, dden)) / (_LN2 * noise_std)
    return mi, dpmf, dsigma


def _pchip(x: Sequence[float], y: Sequence[float], at) -> np.ndarray:
    """Fritsch-Carlson monotone cubic through (x, y), evaluated at `at`.

    The slopes are those of scipy's PchipInterpolator: inside, the weighted
    harmonic mean of the two secants, or 0 where they differ in sign or one
    is 0; at the ends, the one-sided three-point formula, clamped to keep the
    end secant's shape. Two points give the straight line.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h, s = np.diff(x), np.diff(y) / np.diff(x)
    d = np.full(x.size, s[0])
    if x.size > 2:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = np.sign(s[1:]) * np.sign(s[:-1]) <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / s[:-1] + w2 / s[1:]) / (w1 + w2)))
        for end, nxt in ((0, 1), (-1, -2)):
            e = ((2 * h[end] + h[nxt]) * s[end] - h[end] * s[nxt]) / (h[end] + h[nxt])
            if np.sign(e) != np.sign(s[end]):
                e = 0.0
            elif np.sign(s[end]) != np.sign(s[nxt]) and abs(e) > 3 * abs(s[end]):
                e = 3 * s[end]
            d[end] = e
    k = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
    t = np.asarray(at, dtype=float) - x[k]
    g = (d[k] + d[k + 1] - 2 * s[k]) / h[k]
    c2, c3 = (s[k] - d[k]) / h[k] - g, g / h[k]
    return y[k] + d[k] * t + c2 * (t * t) + c3 * (t * t * t)


@dataclass(eq=False)
class MiCurve:
    """MI versus SNR samples for one shaping rule, with monotone lookup."""

    snr_db: tuple[float, ...]
    mi_bpcu: tuple[float, ...]
    profiles: tuple[ShapingProfile, ...] | None = None

    def __post_init__(self) -> None:
        self.snr_db = tuple(float(s) for s in self.snr_db)
        self.mi_bpcu = tuple(float(v) for v in self.mi_bpcu)
        if len(self.snr_db) != len(self.mi_bpcu) or len(self.snr_db) < 2:
            raise ParameterError("curve needs >= 2 aligned (snr, mi) samples")
        if np.any(np.diff(self.snr_db) <= 0):
            raise ParameterError("snr_db samples must be strictly increasing")
        if np.any(np.diff(self.mi_bpcu) < -1e-9):
            raise ParameterError("mi_bpcu must be nondecreasing along the curve")
        if min(self.mi_bpcu) < -1e-12:
            raise ParameterError("mi_bpcu must be nonnegative")

    def rate_at_snr(self, snr_db: float) -> float:
        if not self.snr_db[0] <= snr_db <= self.snr_db[-1]:
            raise ParameterError(
                f"snr {snr_db} dB outside curve range "
                f"[{self.snr_db[0]}, {self.snr_db[-1]}]"
            )
        return float(_pchip(self.snr_db, self.mi_bpcu, snr_db))

    def snr_at_rate(self, rate_bpcu: float) -> float:
        mi = np.asarray(self.mi_bpcu)
        snr = np.asarray(self.snr_db)
        keep = np.concatenate([[True], np.diff(mi) > 1e-12])
        mi, snr = mi[keep], snr[keep]
        if not mi[0] <= rate_bpcu <= mi[-1]:
            raise ParameterError(
                f"rate {rate_bpcu} outside curve MI range [{mi[0]:.6f}, {mi[-1]:.6f}]"
            )
        return float(_pchip(mi, snr, rate_bpcu))


@dataclass(frozen=True)
class OptimizationResult:
    """Best profile found by the optimizer, with its MI evaluation count.

    kkt_residual is the largest projected MI gradient entry at the profile,
    0 at an exact optimum: |dMI/dp|, or only its inward part at a bound.
    """

    profile: ShapingProfile
    mi_bpcu: float
    snr_db: float
    noise_std: float
    evaluations: int
    mode: str
    kkt_residual: float


def _minimize_on_box(fun, start):
    """Projected quasi-Newton on [0, 1]^P: (x, f, g) at the best point reached.

    fun(x) returns (f, df/dx). A coordinate at 0 or 1 whose gradient points
    out of the box is held; the others take a Newton step on their block of
    the Hessian, and an Armijo search halves t along the projection arc
    clip(x + t d, 0, 1) (Bertsekas 1982). The Hessian is L-BFGS-B's compact
    one, B = theta I - W' K^-1 W, over the last _MEMORY steps s and gradient
    changes y, with theta = y'y / s'y of the latest (Byrd, Nocedal &
    Schnabel 1994); Woodbury inverts its free block with one 2k x 2k solve.
    The first step is steepest descent, at most 1 long.
    """
    x = np.clip(start, 0.0, 1.0)
    f, g = fun(x)
    S = Y = np.empty((0, x.size))  # one row per kept step
    for _ in range(_MAX_ITERATIONS):
        free = ~(((x <= 0.0) & (g > 0.0)) | ((x >= 1.0) & (g < 0.0)))
        gf = g[free]
        if np.abs(gf).max(initial=0.0) <= _PGTOL:
            break
        d = np.zeros_like(x)
        if len(S):
            k, SY = len(S), S @ Y.T
            theta = (Y[-1] @ Y[-1]) / SY[-1, -1]
            K = np.empty((2 * k, 2 * k))  # a third of np.block's time
            K[:k, :k] = -np.diag(np.diag(SY))
            K[k:, :k] = np.tril(SY, -1)
            K[:k, k:] = K[k:, :k].T
            K[k:, k:] = theta * (S @ S.T)
            W = np.vstack([Y, theta * S])[:, free]
            d[free] = -(gf + W.T @ np.linalg.solve(theta * K - W @ W.T, W @ gf)) / theta
            t = 1.0
        else:
            d[free] = -gf
            t = min(1.0, 1.0 / np.linalg.norm(d))
        for _ in range(_MAX_HALVINGS):
            x_new = np.clip(x + t * d, 0.0, 1.0)
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * (g @ (x_new - x)):
                break
            t *= 0.5
        else:
            break
        s, y = x_new - x, g_new - g
        done = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
        if s @ y > 1e-10 * (y @ y):  # keep B positive definite
            S, Y = np.vstack([S, s])[-_MEMORY:], np.vstack([Y, y])[-_MEMORY:]
    return x, f, g


def optimize_profile(
    m: int,
    num_distinct: int,
    noise_std: float | None = None,
    *,
    snr_db: float | None = None,
    warm_start: tuple[float, ...] | None = None,
) -> OptimizationResult:
    """Maximize MI over the P-dimensional probability box.

    Exactly one of noise_std / snr_db selects the comparison:

    * noise_std: the channel noise is held fixed; candidates are compared
      at whatever SNR their energy yields.
    * snr_db: each candidate is evaluated at the noise level that puts its
      own energy at that SNR, which is how MI-versus-SNR curves compare
      profiles.

    One projected quasi-Newton run (_minimize_on_box) over [0, 1]^P from
    warm_start, clipped into the box, or the uniform profile, to L-BFGS-B's
    default tolerances. Each evaluation is one awgn_mi(grad=True) call,
    whose exact gradient the chain rule carries through induced_pmf (and,
    at fixed SNR, the noise level) to the P probabilities.
    """
    if (noise_std is None) == (snr_db is None):
        raise ParameterError("pass exactly one of noise_std or snr_db")
    ShapingProfile(m=m, probs=(0.5,) * num_distinct)  # validates m and P upfront
    if noise_std is not None and not 0 < noise_std < math.inf:
        raise ParameterError(f"noise_std must be positive and finite, got {noise_std}")
    try:
        start = np.asarray((0.5,) * num_distinct if warm_start is None else warm_start, dtype=float)
        valid = start.shape == (num_distinct,) and bool(np.isfinite(start).all())
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ParameterError(
            f"warm_start must hold {num_distinct} finite probabilities, got {warm_start!r}"
        )

    x = build_ask(m).points()
    energies = x * x
    M = x.size
    evaluations = 0

    def objective(probs: Sequence[float]) -> tuple[float, np.ndarray]:
        """Negated MI and its gradient in the P probabilities."""
        nonlocal evaluations
        evaluations += 1
        pmf = induced_pmf(m, probs)
        energy = float(pmf @ energies)
        if noise_std is not None:
            sigma = float(noise_std)
        else:
            sigma = sigma_for_snr(energy, float(snr_db))
        value, dpmf, dsigma = awgn_mi(x, pmf, sigma, grad=True)
        if snr_db is not None:
            dpmf = dpmf + dsigma * sigma / (2.0 * energy) * energies
        # induced_pmf backwards: fold the mirrored halves, then the
        # complemented quarters, then sum each source's group
        half = dpmf[: M // 2] + dpmf[M // 2 :][::-1]
        quarter = half[: M // 4] - half[M // 4 :][::-1]
        return -value, quarter.reshape(num_distinct, -1).sum(axis=1) * -(0.5 ** (m - 1))

    probs, neg_mi, descent = _minimize_on_box(objective, start)
    best = ShapingProfile(m=m, probs=tuple(probs))
    # the KKT residual drops the ascent components that point out of the box
    ascent = np.clip(-descent, np.where(probs > 0, -np.inf, 0), np.where(probs < 1, np.inf, 0))
    energy = float(induced_pmf(m, best.probs) @ energies)
    if noise_std is not None:
        out_sigma = float(noise_std)
        out_snr = snr_db_for(energy, out_sigma)
        mode = "fixed-noise"
    else:
        out_sigma = sigma_for_snr(energy, float(snr_db))
        out_snr = float(snr_db)
        mode = "fixed-snr"
    return OptimizationResult(
        profile=best,
        mi_bpcu=-neg_mi,
        snr_db=out_snr,
        noise_std=out_sigma,
        evaluations=evaluations,
        mode=mode,
        kkt_residual=float(np.abs(ascent).max()),
    )


def mi_curve_for_profile(
    profile: ShapingProfile,
    snr_db_grid: Iterable[float],
) -> MiCurve:
    """MI-versus-SNR curve for one fixed profile."""
    x = build_ask(profile.m).points()
    pmf = induced_pmf(profile.m, profile.probs)
    energy = float(pmf @ (x * x))
    grid = [float(s) for s in snr_db_grid]
    values = [awgn_mi(x, pmf, sigma_for_snr(energy, s)) for s in grid]
    return MiCurve(snr_db=tuple(grid), mi_bpcu=tuple(values))


def mi_curve_optimized(
    m: int,
    num_distinct: int,
    snr_db_grid: Iterable[float],
) -> MiCurve:
    """Curve of per-SNR optimized profiles, warm starting along the grid."""
    grid = [float(s) for s in snr_db_grid]
    values: list[float] = []
    profiles: list[ShapingProfile] = []
    warm: tuple[float, ...] | None = None
    for snr in grid:
        result = optimize_profile(
            m, num_distinct, snr_db=snr, warm_start=warm
        )
        warm = result.profile.probs
        values.append(result.mi_bpcu)
        profiles.append(result.profile)
    return MiCurve(
        snr_db=tuple(grid),
        mi_bpcu=tuple(values),
        profiles=tuple(profiles),
    )


def mi_gap_db(curve_a: MiCurve, curve_b: MiCurve, rate_bpcu: float) -> float:
    """Extra SNR (dB) curve_a needs over curve_b to reach the same rate."""
    return curve_a.snr_at_rate(rate_bpcu) - curve_b.snr_at_rate(rate_bpcu)


def rate_loss_to_db(
    rate_loss_bpcu: float, reference_curve: MiCurve, operating_rate: float
) -> float:
    """Convert a rate loss to dB using the curve slope at the operating rate.

    The slope dR/dSNR is a central difference over +-0.25 dB around the
    SNR where the curve reaches operating_rate.
    """
    if rate_loss_bpcu < 0.0:
        raise ParameterError(f"rate loss must be >= 0, got {rate_loss_bpcu}")
    if rate_loss_bpcu == 0.0:
        return 0.0
    snr = reference_curve.snr_at_rate(operating_rate)
    lo = reference_curve.rate_at_snr(snr - _SLOPE_HALF_STEP_DB)
    hi = reference_curve.rate_at_snr(snr + _SLOPE_HALF_STEP_DB)
    slope = (hi - lo) / (2.0 * _SLOPE_HALF_STEP_DB)
    if slope <= 0:
        raise NumericalError(f"non-positive curve slope {slope} at {snr} dB")
    return rate_loss_bpcu / slope
