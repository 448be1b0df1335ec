"""Mutual information of discrete-input AWGN channels and profile optimization.

MI is evaluated with Gauss-Hermite quadrature (64 nodes by default) on

    I(X;Y) = sum_i p_i E[ -t^2/ln2 - log2 sum_j p_j exp(-(z_i - z_j + sqrt2 t)^2 / 2) ]

with z = x / sigma, which is exact up to quadrature error and never leaves
the linear domain (all exponents are nonpositive). awgn_mi takes equally
spaced alphabets (every ASK): its sums over j and their exact gradient
(grad=True) are products of one Toeplitz band matrix with one exp table,
cut to the offsets z_i - z_j whose exp is not flushed to 0 (a few dozen
symbols at high SNR, whatever the alphabet size) and built for those >= 0
only; a mirror-symmetric pmf (every induced one) takes half the band's rows.

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
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .constellation import ShapingProfile, _induced_pmf_pullback, _sources, build_ask, induced_pmf
from .errors import NumericalError, ParameterError, _integer, _real

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
# awgn_mi flushes exp table entries below e^_FLUSH_EXP to 0, caches band
# indices of up to _CACHED_INDEX_ENTRIES entries, and takes orders up to
# _MAX_ORDER (numpy's hermgauss weights are NaN from 372)
_FLUSH_EXP = -460.0
_CACHED_INDEX_ENTRIES = 1 << 15
_MAX_ORDER = 360
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
def _quadrature(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(2) t_k, -t_k^2 and w_k / sqrt(pi) of the order-point Gauss-Hermite rule."""
    nodes, weights = hermgauss(order)
    rule = math.sqrt(2.0) * nodes, -nodes * nodes, weights / math.sqrt(math.pi)
    for a in rule:
        a.setflags(write=False)
    return rule


@lru_cache(maxsize=16)
def _band_index(M: int, W: int) -> np.ndarray:
    """idx[i, c] = i + 2 W - c, writeable: np.bincount copies a read-only index."""
    return np.arange(2 * W, M + 2 * W)[:, None] - np.arange(2 * W + 1)


def sigma_for_snr(energy: float, snr_db: float) -> float:
    """Noise standard deviation that puts `energy` at the given SNR; one that
    is not a positive float (beyond about +-3080 dB) raises ParameterError."""
    energy, snr_db = _real(energy, "energy", 0.0), _real(snr_db, "snr_db")
    try:
        sigma = math.sqrt(energy / 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma = 0.0
    if not 0 < sigma < math.inf:
        raise ParameterError(f"an SNR of {snr_db} dB has no positive finite noise level")
    return sigma


def snr_db_for(energy: float, noise_std: float) -> float:
    energy, noise_std = _real(energy, "energy", 0.0), _real(noise_std, "noise_std", 0.0)
    # two logs: the ratio under- or overflows for noise_std far from 1
    return 10.0 * math.log10(energy) - 20.0 * math.log10(noise_std)


def _capacity_snr_db(rate: float) -> float:
    """The SNR at which the Gaussian-input capacity 1/2 log2(1 + SNR) is rate > 0;
    expm1 keeps 2^(2 rate) - 1 positive where 2^(2 rate) rounds to 1."""
    return 10.0 * math.log10(math.expm1(2.0 * rate * math.log(2.0)))


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

    The sums over j see only offsets z_i - z_j = r s, s the spacing in noise
    standard deviations, with |r| <= W = min(M - 1, floor((sqrt(920) +
    sqrt(2) max|t_k| + 1e-9) / |s|)) (M - 1 if s = 0): farther exps are
    below e^-460, flushed to 0. With K = order, B = 2W + 1 and w = 2 with
    grad (1 without), the M x B band and its index, the B x wK exp table,
    the M x wK denominator, their temporaries and the vectors peak below
    8 (2 M B + (w + 3) B K + (w + 4) M (K + 1)) bytes + 256 KiB, plus at
    most 4 MB of indices cached across calls. Where that passes 256 MB
    (4096-ASK with noise_std above about 83 at order 64) ParameterError is
    raised before allocating anything, which also bounds the work, about
    M B K multiply-adds (3x that with grad). order is an integer in [1, 360].
    The table is built for r >= 0 and mirrored, and an even-length pmf equal
    to its mirror (every induced_pmf) takes the lower M/2 rows only; the bound
    and the cap count full arrays, so no input is newly accepted or refused.
    """
    xs = np.asarray(x, dtype=float)
    p = np.asarray(pmf, dtype=float)
    if xs.ndim != 1 or xs.shape != p.shape:
        raise ParameterError("x and pmf must be 1-D arrays of equal length")
    if not (p.min(initial=0.0) >= 0 and abs(float(p.sum()) - 1.0) <= 1e-9):  # NaN fails
        raise ParameterError("pmf must be nonnegative and sum to 1")
    noise_std, order = _real(noise_std, "noise_std", 0.0), _integer(order, "order", 1, _MAX_ORDER)
    if not isinstance(grad, (bool, np.bool_)):
        raise ParameterError(f"grad must be a bool, got {grad!r}")
    M, w = xs.size, 2 if grad else 1
    # np.allclose(diff(z), step, 1e-12, 1e-12), 7x faster, plus room for
    # the rounding of z = x / noise_std: each z is off by up to eps max|z| / 2,
    # so exactly spaced x may show a spread of 2 eps max|z| <= 2 eps edge.
    # With edge finite the test fails every NaN or inf point, so inf - inf
    # may go quietly to NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        z = xs / noise_std
        step = float(z[1] - z[0]) if M > 1 else 0.0
        spread = np.abs(z[1:] - z[:-1] - step).max(initial=0.0)
        edge = float(abs(z[0]) + abs(z[-1]))
    tolerance = 1e-12 * (1.0 + abs(step)) + 4.0 * sys.float_info.epsilon * edge
    if not (math.isfinite(edge) and spread <= tolerance):
        raise ParameterError("x must be finite and equally spaced")
    # the kernel squares (M - 1) * step plus a node and multiplies it by
    # (M - 1) * step, which overflows once that passes about 1.3e154
    if abs(step) * (M - 1) > _MI_MAX_SPAN:
        raise ParameterError(
            f"x spans {abs(step) * (M - 1):.3g} noise standard deviations, "
            f"above the {_MI_MAX_SPAN:.0e} the quadrature can square"
        )
    shift, minus_t2, weights = _quadrature(order)
    # row r, offset r step, is all flushed once |r step| - max|shift| >=
    # sqrt(-2 _FLUSH_EXP); the 1e-9 keeps rows rounding in u may not flush
    reach = math.sqrt(-2.0 * _FLUSH_EXP) + float(shift[-1]) + 1e-9
    W = M - 1 if step == 0 else int(min(reach / abs(step), M - 1))  # the ratio may be inf
    B = 2 * W + 1
    need = 8 * (2 * M * B + (w + 3) * B * order + (w + 4) * M * (order + 1)) + (256 << 10)
    if need > _MI_CAP_BYTES:
        raise ParameterError(
            f"awgn_mi needs {need / (1 << 20):.1f} MB for M = {M} and window {W} at order "
            f"{order}, above its {_MI_CAP_BYTES >> 20} MB cap"
        )
    # rows r >= 0: hermgauss's rule is symmetric bit for bit, so row -r is row r reversed
    r = np.arange(W + 1, dtype=float)[:, None] * step
    u = r + shift
    arg = -0.5 * u * u
    # flushing entries below e^_FLUSH_EXP to 0 changes no den_ik, which
    # holds p_i e^-t_k^2 (t_k^2 < 115 at order 64), and keeps slow
    # denormals out of the products
    table = np.zeros((B, w * order))
    upper = table[W:]
    np.exp(arg, out=upper[:, :order], where=arg > _FLUSH_EXP)
    if grad:
        # d table / d noise_std = table u r / noise_std
        np.multiply(upper[:, :order], u * r, out=upper[:, order:])
    table.reshape(B, w, order)[:W] = upper.reshape(W + 1, w, order)[:0:-1, :, ::-1]
    # den = band @ table with band[i, c] = p_j, j = i + W - c, read from the
    # pmf padded by W zeros on each side at idx[i, c] = j + W. A mirrored pmf
    # makes den's row M - 1 - i row i with the nodes reversed: fold = 2
    idx = (_band_index if M * B <= _CACHED_INDEX_ENTRIES else _band_index.__wrapped__)(M, W)
    fold = 2 if M % 2 == 0 and (p == p[::-1]).all() else 1
    half = M // fold
    padded = np.zeros(M + 2 * W)
    padded[W : M + W] = p
    band = padded[idx[:half]]
    den = band @ table
    dden, den = den[:, order:], np.maximum(den[:, :order], 1e-300)
    per_symbol = (minus_t2 - np.log(den)) @ weights
    mi = fold * float(p[:half] @ per_symbol) / _LN2
    if not math.isfinite(mi):
        raise NumericalError("mutual information evaluation produced a non-finite value")
    if not grad:
        return mi
    q = p[:half, None] * (weights / den)
    # d den_ik / d p_j is table[i + W - j, k]: sum over the entries of idx j + W
    np.matmul(q, table[:, :order].T, out=band)
    sums = np.bincount(idx[:half].ravel(), band.ravel(), M + 2 * W)[W : M + W]
    if fold == 2:  # row M - 1 - i adds to M - 1 - j what row i adds to j
        per_symbol, sums = np.concatenate((per_symbol, per_symbol[::-1])), sums + sums[::-1]
    dpmf = (per_symbol - sums) / _LN2
    dsigma = -fold * float(np.vdot(q, dden)) / (_LN2 * noise_std)
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


@dataclass(frozen=True, eq=False)
class MiCurve:
    """MI versus SNR samples for one shaping rule, with monotone lookup."""

    snr_db: tuple[float, ...]
    mi_bpcu: tuple[float, ...]
    profiles: tuple[ShapingProfile, ...] | None = None

    @staticmethod
    def _axis(snr_db: Iterable[float], samples: int | None = None) -> tuple[float, ...]:
        """snr_db as floats, if it fits a curve of `samples` MI values (any number if None)."""
        axis = tuple(_real(s, "snr_db sample") for s in snr_db)
        if len(axis) < 2 or samples not in (None, len(axis)):
            raise ParameterError("curve needs >= 2 aligned (snr, mi) samples")
        if not np.all(np.diff(axis) > 0):
            raise ParameterError("snr_db samples must be strictly increasing")
        return axis

    def __post_init__(self) -> None:
        object.__setattr__(self, "mi_bpcu", tuple(_real(v, "mi_bpcu sample") for v in self.mi_bpcu))
        object.__setattr__(self, "snr_db", MiCurve._axis(self.snr_db, len(self.mi_bpcu)))
        if self.profiles is not None and len(self.profiles) != len(self.mi_bpcu):
            raise ParameterError(f"curve needs one profile per sample, got {len(self.profiles)}")
        if np.any(np.diff(self.mi_bpcu) < -1e-9):
            raise ParameterError("mi_bpcu must be nondecreasing along the curve")
        if min(self.mi_bpcu) < -1e-12:
            raise ParameterError("mi_bpcu must be nonnegative")

    def rate_at_snr(self, snr_db: float) -> float:
        snr_db = _real(snr_db, "snr_db")
        if not self.snr_db[0] <= snr_db <= self.snr_db[-1]:
            raise ParameterError(
                f"snr {snr_db} dB outside curve range "
                f"[{self.snr_db[0]}, {self.snr_db[-1]}]"
            )
        return float(_pchip(self.snr_db, self.mi_bpcu, snr_db))

    def snr_at_rate(self, rate_bpcu: float) -> float:
        rate_bpcu = _real(rate_bpcu, "rate_bpcu")
        mi = np.asarray(self.mi_bpcu)
        snr = np.asarray(self.snr_db)
        keep = np.concatenate([[True], np.diff(mi) > 1e-12])
        mi, snr = mi[keep], snr[keep]
        if mi.size < 2 or mi[-1] < rate_bpcu <= self.mi_bpcu[-1]:
            raise ParameterError(f"MI stops rising at {snr[-1]} dB ({mi[-1]:.6f} bpcu), saturated "
                                 f"or vanished: no SNR on the curve reaches rate {rate_bpcu}")
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


class _Pairs:
    """The last _MEMORY kept steps, oldest first: V[0, -k:] holds their y, V[1, -k:] their s."""

    def __init__(self, size: int) -> None:
        self.V, self.k = np.empty((2, _MEMORY, size)), 0


class _WarmStart(tuple):
    """A warm_start profile with a sweep's _Pairs as .pairs, for _minimize_on_box."""


@lru_cache(maxsize=_MEMORY)
def _compact_mask(k: int) -> np.ndarray:
    """Where theta K equals the Gram matrix of W = [Y; theta S]: L, L' and S'S."""
    mask = np.tri(2 * k, 2 * k, -k - 1)  # L_ij = s_i'y_j for i > j
    mask[k:, k:] = 1.0
    return np.maximum(mask, mask.T)


def _minimize_on_box(fun, start):
    """Projected quasi-Newton on [0, 1]^P: (x, f, g) at the best point reached.

    fun(x) returns (f, df/dx). A coordinate at 0 or 1 whose gradient points
    out of the box is held; the others take a Newton step on their block of
    the Hessian, and an Armijo search halves t along the projection arc
    clip(x + t d, 0, 1) (Bertsekas 1982). The Hessian is L-BFGS-B's compact
    one, B = theta I - W' K^-1 W, over the last _MEMORY steps s and gradient
    changes y, with theta = y'y / s'y of the latest (Byrd, Nocedal &
    Schnabel 1994); Woodbury inverts its free block with one 2k x 2k solve.
    A sweep's _WarmStart brings the pairs of the runs before and takes this
    run's; otherwise the first step is steepest descent, at most 1 long.
    """
    x = np.clip(start, 0.0, 1.0)
    f, g = fun(x)
    pairs = getattr(start, "pairs", None) or _Pairs(x.size)
    for _ in range(_MAX_ITERATIONS):
        held = ((x <= 0.0) & (g > 0.0)) | ((x >= 1.0) & (g < 0.0))
        gf = np.where(held, 0.0, g)
        if np.abs(gf).max() <= _PGTOL:
            break
        if k := pairs.k:
            Y, S = pairs.V[:, -k:]
            theta = (Y[-1] @ Y[-1]) / (S[-1] @ Y[-1])
            W = np.concatenate((Y, theta * S))
            Wf, H = np.where(held, 0.0, W), W @ W.T
            A = H * _compact_mask(k) - Wf @ Wf.T
            A[:k, :k] -= np.diag(H.diagonal(-k))  # theta K's -theta D
            d = -(gf + np.linalg.solve(A, W @ gf) @ Wf) / theta
            t = 1.0
        else:
            d = -gf
            t = min(1.0, 1.0 / math.sqrt(gf @ gf))
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
            pairs.V[:, :-1] = pairs.V[:, 1:]
            pairs.V[:, -1] = y, s
            pairs.k = min(pairs.k + 1, _MEMORY)
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
    m, num_distinct = _sources(m, num_distinct)
    noise_std = noise_std if noise_std is None else _real(noise_std, "noise_std", 0.0)
    snr_db = snr_db if snr_db is None else _real(snr_db, "snr_db")
    try:
        start = np.asarray((0.5,) * num_distinct if warm_start is None else warm_start, dtype=float)
        valid = start.shape == (num_distinct,) and bool(np.isfinite(start).all())
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ParameterError(
            f"warm_start must hold {num_distinct} finite probabilities, got {warm_start!r}"
        )

    x = np.arange(1 - (1 << m), 1 << m, 2, dtype=float)
    energies = x * x
    evaluations = 0

    def sigma_of(energy: float) -> float:  # the noise a profile of this energy meets
        return noise_std if snr_db is None else sigma_for_snr(energy, snr_db)

    def objective(probs: Sequence[float]) -> tuple[float, np.ndarray]:
        """Negated MI and its gradient in the P probabilities."""
        nonlocal evaluations
        evaluations += 1
        pmf = induced_pmf(m, probs)
        energy = float(pmf @ energies)
        sigma = sigma_of(energy)
        value, dpmf, dsigma = awgn_mi(x, pmf, sigma, grad=True)
        if snr_db is not None:
            dpmf = dpmf + dsigma * sigma / (2.0 * energy) * energies
        return -value, -_induced_pmf_pullback(m, num_distinct, dpmf)

    probs, neg_mi, descent = _minimize_on_box(objective, start if warm_start is None else warm_start)
    # the KKT residual drops the gradient components held at a bound, as the search does
    held = ((probs <= 0.0) & (descent > 0.0)) | ((probs >= 1.0) & (descent < 0.0))
    energy = float(induced_pmf(m, probs) @ energies)
    sigma = sigma_of(energy)
    return OptimizationResult(
        profile=ShapingProfile(m=m, probs=probs),
        mi_bpcu=-neg_mi,
        snr_db=snr_db_for(energy, sigma) if snr_db is None else snr_db,
        noise_std=sigma,
        evaluations=evaluations,
        mode="fixed-noise" if snr_db is None else "fixed-snr",
        kkt_residual=float(np.abs(np.where(held, 0.0, descent)).max()),
    )


def mi_curve_for_profile(profile: ShapingProfile, snr_db_grid: Iterable[float]) -> MiCurve:
    """MI-versus-SNR curve for one fixed profile."""
    grid = MiCurve._axis(snr_db_grid)
    x = build_ask(profile.m).points()
    pmf = induced_pmf(profile.m, profile.probs)
    energy = float(pmf @ (x * x))
    return MiCurve(grid, [awgn_mi(x, pmf, sigma_for_snr(energy, s)) for s in grid])


def _warm_sweep(
    m: int, num_distinct: int, key: str, grid: Iterable[float]
) -> Iterator[OptimizationResult]:
    """optimize_profile at each grid value of key, "snr_db" or "noise_std", as one
    continuation: each run keeps the curvature pairs of the runs before it and starts
    from the last two profiles extrapolated linearly in the value, clipped into the
    box (from the last profile after one point or two equal values)."""
    m, num_distinct = _sources(m, num_distinct)  # before numpy sizes arrays by it
    pairs, points = _Pairs(num_distinct), [(None, np.full(num_distinct, 0.5))] * 2
    for value in grid:
        (v0, p0), (v1, p1) = points
        ratio = 0.0 if v0 is None or v0 == v1 else (value - v1) / (v1 - v0)
        start = _WarmStart(np.clip(p1 + ratio * (p1 - p0), 0.0, 1.0) if math.isfinite(ratio) else p1)
        start.pairs = pairs
        result = optimize_profile(m, num_distinct, warm_start=start, **{key: value})
        points = [points[1], (value, np.array(result.profile.probs))]
        yield result


def mi_curve_optimized(m: int, num_distinct: int, snr_db_grid: Iterable[float]) -> MiCurve:
    """Curve of per-SNR optimized profiles, warm starting along the grid."""
    grid = MiCurve._axis(snr_db_grid)
    results = list(_warm_sweep(m, num_distinct, "snr_db", grid))
    return MiCurve(grid, [r.mi_bpcu for r in results], tuple(r.profile for r in results))


def mi_gap_db(curve_a: MiCurve, curve_b: MiCurve, rate_bpcu: float) -> float:
    """Extra SNR (dB) curve_a needs over curve_b to reach the same rate."""
    return curve_a.snr_at_rate(rate_bpcu) - curve_b.snr_at_rate(rate_bpcu)


def rate_loss_to_db(
    rate_loss_bpcu: float, reference_curve: MiCurve, operating_rate: float
) -> float:
    """Convert a rate loss to dB using the curve slope at the operating rate.

    The slope dR/dSNR is a central difference over +-0.25 dB around the
    SNR where the curve reaches operating_rate. A negative loss, a rate gain,
    converts the same way to negative dB; NaN and +-inf raise ParameterError,
    as does a loss of at least operating_rate (MI vanished, far below 0 dB)
    where the curve still rises.
    """
    rate_loss_bpcu = _real(rate_loss_bpcu, "rate_loss_bpcu")
    operating_rate = _real(operating_rate, "operating_rate")
    if rate_loss_bpcu == 0.0:
        return 0.0
    snr = reference_curve.snr_at_rate(operating_rate)  # first, to name a flat curve
    if rate_loss_bpcu >= operating_rate:
        raise ParameterError(
            f"rate loss {rate_loss_bpcu:.3g} bpcu is at least the operating rate "
            f"{operating_rate:.3g} bpcu"
        )
    lo = reference_curve.rate_at_snr(snr - _SLOPE_HALF_STEP_DB)
    hi = reference_curve.rate_at_snr(snr + _SLOPE_HALF_STEP_DB)
    slope = (hi - lo) / (2.0 * _SLOPE_HALF_STEP_DB)
    if slope <= 0:
        raise NumericalError(f"non-positive curve slope {slope} at {snr} dB")
    return rate_loss_bpcu / slope
