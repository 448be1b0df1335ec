"""Mutual information, quadrature accuracy, and profile optimization tests."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from signshape import (
    MiCurve,
    NumericalError,
    ParameterError,
    ShapingProfile,
    awgn_mi,
    build_ask,
    induced_distribution,
    mi_curve_for_profile,
    mi_curve_optimized,
    mi_gap_db,
    optimize_profile,
    rate_loss_to_db,
    sigma_for_snr,
    snr_db_for,
)
from signshape import midist
from signshape.constellation import induced_pmf
from signshape.midist import _pchip

from helpers import trapezoid_mi


def uniform_dist(m):
    return induced_distribution(ShapingProfile(m=m, probs=(0.5,) * (2 ** (m - 2))))


def stated_grad_bound(M, K=64):
    """The bytes awgn_mi's docstring bounds its arrays by, with grad=True (w = 2)."""
    return 8 * (2 * M * M + 5 * (2 * M - 1) * K + 6 * M * K) + (16 << 10)


class TestChannelSpec:
    """Noise level versus SNR for a given symbol energy."""

    def test_snr_roundtrip(self):
        dist = uniform_dist(5)
        sigma = sigma_for_snr(dist.average_energy, 24.0)
        assert snr_db_for(dist.average_energy, sigma) == pytest.approx(24.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ParameterError):
            snr_db_for(uniform_dist(3).average_energy, 0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ParameterError):
            snr_db_for(uniform_dist(3).average_energy, sigma)


class TestAwgnMi:
    def test_uniform_32ask_24db_frozen_value(self):
        # frozen from an independent fine-grid trapezoid integration
        dist = uniform_dist(5)
        sigma = sigma_for_snr(dist.average_energy, 24.0)
        mi = awgn_mi(build_ask(5).points(), dist.pmf(), sigma)
        assert mi == pytest.approx(3.773656044, abs=1e-5)

    def test_matches_trapezoid_oracle(self):
        dist = induced_distribution(ShapingProfile(m=4, probs=(0.05, 0.25)))
        points = build_ask(4).points()
        pmf = dist.pmf()
        sigma = sigma_for_snr(dist.average_energy, 15.0)
        oracle = trapezoid_mi(points, pmf, sigma)
        assert awgn_mi(points, pmf, sigma) == pytest.approx(oracle, abs=1e-6)

    def test_two_point_high_snr_is_one_bit(self):
        mi = awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 0.02)
        assert mi == pytest.approx(1.0, abs=1e-9)

    def test_huge_noise_kills_information(self):
        dist = uniform_dist(3)
        mi = awgn_mi(build_ask(3).points(), dist.pmf(), 1e6)
        assert 0.0 <= mi < 1e-6

    def test_monotone_in_sigma(self):
        dist = uniform_dist(4)
        points = build_ask(4).points()
        sigmas = [0.5, 1.0, 2.0, 4.0, 8.0]
        values = [awgn_mi(points, dist.pmf(), s) for s in sigmas]
        assert values == sorted(values, reverse=True)

    def test_order_64_vs_128(self):
        dist = induced_distribution(ShapingProfile(m=5, probs=(0.04, 0.24)))
        points = build_ask(5).points()
        sigma = sigma_for_snr(dist.average_energy, 17.0)
        a = awgn_mi(points, dist.pmf(), sigma, order=64)
        b = awgn_mi(points, dist.pmf(), sigma, order=128)
        assert a == pytest.approx(b, abs=1e-7)

    def test_rejects_unnormalized(self):
        # a NaN entry fails no comparison, so it used to pass the sum test
        # and end in NumericalError
        for pmf in ([0.6, 0.6], [-0.5, 1.5], [np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5]):
            for grad in (False, True):
                with pytest.raises(ParameterError, match="pmf"):
                    awgn_mi(np.array([-1.0, 1.0]), np.array(pmf), 1.0, grad=grad)

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("points", [
        [-3.0, -1.0, 0.5, 3.0],
        [-3.0, -1.0, 1.0, np.nan],
        [np.nan, -1.0, 1.0, 3.0],
        [-3.0, -1.0, 1.0, np.inf],
        [-np.inf, -1.0, 1.0, np.inf],
        [np.nan],
        [np.inf],
    ])
    def test_rejects_unequal_or_non_finite_points(self, points, grad):
        pmf = np.full(len(points), 1.0 / len(points))
        with pytest.raises(ParameterError, match="equally spaced"):
            awgn_mi(np.array(points), pmf, 0.8, grad=grad)

    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_order_below_one(self, order):
        with pytest.raises(ParameterError, match="order"):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0, order)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), -1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ParameterError):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), sigma)

    @pytest.mark.parametrize("grad", [False, True])
    def test_rejects_span_too_wide_to_square(self, grad):
        # squaring the span used to overflow: two RuntimeWarnings, and with
        # grad a NaN dI/dsigma and no error
        with pytest.raises(ParameterError, match="noise standard deviations"):
            awgn_mi(np.array([0.0, 1e200]), np.array([0.5, 0.5]), 1.0, grad=grad)

    def test_memory_cap(self):
        # the cap counts the band buffer, 16 M^2 bytes, and the order-sized
        # arrays: 2048-ASK (64 MB of band) runs, and 4096-ASK's 256 MB band
        # is refused before anything is allocated
        assert 0 < awgn_mi(build_ask(11).points(), np.full(2048, 1 / 2048), 1.0) <= 11
        for grad in (False, True):
            with pytest.raises(ParameterError, match="cap"):
                awgn_mi(build_ask(12).points(), np.full(4096, 1 / 4096), 1.0, grad=grad)

    @pytest.mark.parametrize("m", [2, 5, 6, 9, 11])
    def test_peak_within_stated_bound(self, m):
        x, pmf = build_ask(m).points(), np.full(1 << m, 1.0 / (1 << m))
        awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0)  # caches the rule
        tracemalloc.start()
        try:
            awgn_mi(x, pmf, 1.0, grad=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stated_grad_bound(1 << m)

    def test_single_point_carries_no_information(self):
        mi, dpmf, dsigma = awgn_mi(np.array([3.0]), np.array([1.0]), 0.5, grad=True)
        assert mi == pytest.approx(0.0, abs=1e-12)
        assert dpmf.shape == (1,) and dsigma == 0.0
        assert awgn_mi(np.array([3.0]), np.array([1.0]), 0.5) == mi

    def test_mirror_invariance(self):
        points = build_ask(4).points()
        pmf = induced_distribution(ShapingProfile(m=4, probs=(0.1, 0.3))).pmf()
        a = awgn_mi(points, pmf, 2.0)
        b = awgn_mi(points[::-1].copy(), pmf[::-1].copy(), 2.0)
        assert a == pytest.approx(b, abs=1e-12)


class TestMiMemory:
    def test_2048_ask_gradient_rss_within_stated_bound(self):
        # the child's heap is capped so that a regression to M x M x order
        # arrays fails fast with MemoryError instead of exhausting the host;
        # BLAS runs one thread, whose packing buffers are not awgn_mi's arrays
        child = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_DATA, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from signshape import awgn_mi, build_ask\n"
            "awgn_mi([-1.0, 1.0], [0.5, 0.5], 1.0, grad=True)\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "x = build_ask(11).points()\n"
            "awgn_mi(x, np.full(x.size, 1.0 / x.size), 1.0, grad=True)\n"
            "print(base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(midist.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        base_kib, peak_kib = map(int, result.stdout.split()[-2:])  # ru_maxrss is in KiB
        assert (peak_kib - base_kib) * 1024 <= stated_grad_bound(2048)


def _one_sided(f, h):
    # second-order forward difference, for entries that may not go below 0
    return (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)


def _central(f, h):
    return (f(h) - f(-h)) / (2 * h)


class TestMiGradient:
    """awgn_mi(grad=True) against finite differences of its own value."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_finite_differences(self, m):
        # one source per symbol pair, with the first probability 0 and the
        # last 1, so some pmf entries are exactly 0; at sigma = 1.6 every
        # symbol overlaps its neighbours, so the MI is smooth at those zeros
        probs = np.random.default_rng(m).uniform(0.05, 0.95, 1 << (m - 2))
        probs[0] = 0.0
        if probs.size > 1:
            probs[-1] = 1.0
        x, pmf, sigma = build_ask(m).points(), induced_pmf(m, probs), 1.6
        # tilted, because a mirror-image error cancels on a symmetric pmf
        pmf = pmf * np.linspace(0.5, 1.5, x.size)
        pmf /= pmf.sum()
        assert np.any(pmf == 0)
        _, dpmf, dsigma = awgn_mi(x, pmf, sigma, grad=True)
        # the pmf must keep summing to 1, so step along e_j - e_ref
        ref = int(np.argmax(pmf))
        for j in range(x.size):
            step = np.zeros(x.size)
            step[j] += 1.0
            step[ref] -= 1.0

            def f(t):
                return awgn_mi(x, pmf + t * step, sigma)

            want = _central(f, 1e-6) if pmf[j] > 0 else _one_sided(f, 1e-7)
            assert dpmf[j] - dpmf[ref] == pytest.approx(want, abs=1e-6), j
        want = _central(lambda t: awgn_mi(x, pmf, sigma * (1 + t)), 1e-6) / sigma
        assert dsigma == pytest.approx(want, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("m, snr_db", [(3, 6.0), (5, 17.0), (6, 30.0), (8, 40.0)])
    def test_value_is_the_value_path(self, m, snr_db):
        x = build_ask(m).points()
        pmf = induced_pmf(m, np.linspace(0.02, 0.5, 1 << (m - 2)))
        sigma = sigma_for_snr(float(pmf @ (x * x)), snr_db)
        mi, _, _ = awgn_mi(x, pmf, sigma, grad=True)
        assert mi == pytest.approx(awgn_mi(x, pmf, sigma), abs=1e-14)


class TestMiCurve:
    def make_curve(self):
        prof = ShapingProfile(m=3, probs=(0.08, 0.28))
        return mi_curve_for_profile(prof, np.arange(4.0, 16.01, 1.0))

    def test_rate_at_snr_interpolates(self):
        curve = self.make_curve()
        r = curve.rate_at_snr(10.0)
        assert curve.mi_bpcu[6] == pytest.approx(r)

    def test_snr_at_rate_inverts(self):
        # forward and inverse interpolants are built independently, so the
        # round trip is only as tight as the grid allows
        curve = self.make_curve()
        snr = curve.snr_at_rate(2.0)
        assert curve.rate_at_snr(snr) == pytest.approx(2.0, abs=1e-4)

    def test_out_of_range(self):
        curve = self.make_curve()
        with pytest.raises(ParameterError):
            curve.rate_at_snr(3.0)
        with pytest.raises(ParameterError):
            curve.snr_at_rate(2.99)

    def test_requires_increasing_snr(self):
        with pytest.raises(ParameterError):
            MiCurve(snr_db=(1.0, 1.0), mi_bpcu=(0.5, 0.5))


def _pchip_cases():
    # the curves criteria 3, 4b, 5 and 6 look up
    grid_32, grid_64 = np.arange(6.0, 20.01, 0.5), np.arange(26.0, 34.01, 0.5)
    return [
        (5, (0.04, 0.24), grid_32),
        (5, (0.08, 0.28), grid_32),
        (6, (0.04, 0.24), grid_64),
        (5, (0.04, 0.24), np.arange(15.0, 19.0 + 1e-9, 0.25)),
    ]


def _nodes_and_midpoints(x):
    x = np.asarray(x)
    return np.concatenate([x, (x[1:] + x[:-1]) / 2])


class TestPchip:
    """The numpy monotone cubic agrees with scipy's PchipInterpolator."""

    @pytest.mark.parametrize("m, probs, grid", _pchip_cases())
    def test_curve_lookups_match_scipy(self, m, probs, grid):
        curve = mi_curve_for_profile(ShapingProfile(m=m, probs=probs), grid)
        snrs = _nodes_and_midpoints(curve.snr_db)
        got = [curve.rate_at_snr(s) for s in snrs]
        want = PchipInterpolator(curve.snr_db, curve.mi_bpcu)(snrs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        mi, snr = np.asarray(curve.mi_bpcu), np.asarray(curve.snr_db)
        keep = np.concatenate([[True], np.diff(mi) > 1e-12])
        rates = _nodes_and_midpoints(mi[keep])
        got = [curve.snr_at_rate(r) for r in rates]
        want = PchipInterpolator(mi[keep], snr[keep])(rates)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_random_curves_match_scipy(self):
        rng = np.random.default_rng(8)
        for trial in range(300):
            n = int(rng.integers(3, 30))
            x = np.cumsum(rng.uniform(0.05, 2.0, n))
            # rounding makes flat runs; a random walk makes sign changes
            y = np.round(np.cumsum(rng.normal(size=n)), int(trial % 3))
            at = np.concatenate([x, rng.uniform(x[0], x[-1], 40)])
            want = PchipInterpolator(x, y)(at)
            np.testing.assert_allclose(_pchip(x, y, at), want, rtol=1e-12, atol=1e-12)

    def test_two_points_is_the_line(self):
        x, y = np.array([1.0, 3.0]), np.array([0.5, 2.5])
        at = np.array([1.0, 1.5, 2.0, 3.0])
        np.testing.assert_allclose(_pchip(x, y, at), at - 0.5, rtol=1e-15)
        np.testing.assert_allclose(
            _pchip(x, y, at), PchipInterpolator(x, y)(at), rtol=1e-12, atol=1e-12
        )


@pytest.fixture
def objectives(monkeypatch):
    """Every (objective, start) optimize_profile hands to its minimizer."""
    seen = []
    minimize = midist._minimize_on_box

    def spy(fun, start):
        seen.append((fun, start))
        return minimize(fun, start)

    monkeypatch.setattr(midist, "_minimize_on_box", spy)
    return seen


def _never_called(*args, **kwargs):
    raise AssertionError("awgn_mi called before the arguments were checked")


class TestOptimize:
    @pytest.mark.parametrize(
        "m, num_distinct, noise_std, snr_db",
        [(3, 2, None, 10.0), (6, 16, None, 30.0), (4, 2, 2.0, None), (4, 2, 5.0, None)],
    )
    def test_objective_gradient(self, objectives, m, num_distinct, noise_std, snr_db):
        result = optimize_profile(m, num_distinct, noise_std, snr_db=snr_db)
        [(negated, start)] = objectives
        np.testing.assert_array_equal(start, 0.5)
        best = np.asarray(result.profile.probs)
        for probs in (np.linspace(0.1, 0.45, num_distinct), best):
            _, grad = negated(probs)
            for i in range(num_distinct):
                step = np.zeros(num_distinct)
                step[i] = 1.0

                def f(t):
                    return negated(probs + t * step)[0]

                if probs[i] == 1.0:  # the active bound at sigma = 5
                    want = -_one_sided(lambda t: f(-t), 1e-6)
                elif probs[i] == 0.0:
                    want = _one_sided(f, 1e-6)
                else:
                    want = _central(f, 1e-6)
                assert grad[i] == pytest.approx(want, abs=1e-7), (probs, i)
        # the KKT residual is the projected ascent gradient at the result
        ascent = -negated(best)[1]
        projected = np.where(best == 0.0, np.maximum(ascent, 0.0), np.abs(ascent))
        projected = np.where(best == 1.0, np.maximum(-ascent, 0.0), projected)
        assert result.kkt_residual == pytest.approx(projected.max(), abs=1e-12)
        assert result.kkt_residual < 1e-3

    def test_cold_p16_uses_the_gradient(self):
        # a finite-difference gradient alone costs P + 1 = 17 evaluations
        # per step, and took 307 here
        result = optimize_profile(6, 16, snr_db=30.0)
        assert result.evaluations <= 40
        assert result.kkt_residual < 1e-3

    def test_fixed_snr_8ask_recovers_known_operating_point(self):
        result = optimize_profile(3, 2, snr_db=10.0)
        assert result.profile.probs[0] == pytest.approx(0.08, abs=0.02)
        assert result.profile.probs[1] == pytest.approx(0.28, abs=0.02)
        assert result.mode == "fixed-snr"

    def test_fixed_sigma_never_below_uniform(self):
        for sigma in (1.0, 2.0, 5.0):
            result = optimize_profile(4, 2, sigma)
            uniform = awgn_mi(build_ask(4).points(), uniform_dist(4).pmf(), sigma)
            assert result.mi_bpcu >= uniform - 1e-12
            assert result.mode == "fixed-noise"

    def test_requires_exactly_one_operating_point(self):
        with pytest.raises(ParameterError):
            optimize_profile(3, 2)
        with pytest.raises(ParameterError):
            optimize_profile(3, 2, 1.0, snr_db=10.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ParameterError):
            optimize_profile(3, 2, sigma)

    def test_p1_matches_1d_scan(self):
        # independent coarse/fine scan over the single probability
        result = optimize_profile(2, 1, snr_db=6.0)
        dist0 = induced_distribution(ShapingProfile(m=2, probs=(0.5,)))

        def mi_at(p):
            prof = ShapingProfile(m=2, probs=(p,))
            dist = induced_distribution(prof)
            sigma = sigma_for_snr(dist.average_energy, 6.0)
            return awgn_mi(build_ask(2).points(), dist.pmf(), sigma)

        grid = np.arange(0.0, 1.0001, 0.0005)
        values = [mi_at(p) for p in grid]
        best = grid[int(np.argmax(values))]
        assert result.profile.probs[0] == pytest.approx(best, abs=5e-4)
        assert result.mi_bpcu == pytest.approx(max(values), abs=1e-5)

    @pytest.mark.parametrize(
        "m, snr_db, noise_std",
        [(3, 10.0, None), (4, 12.0, None), (5, 4.0, None), (5, 18.0, None), (4, None, 5.0)],
    )
    def test_cold_p2_reaches_grid_optimum(self, m, snr_db, noise_std):
        # the best point of a full 0.02 product grid bounds the global
        # optimum from below; a local search stuck elsewhere falls short
        x = build_ask(m).points()

        def mi_at(probs):
            pmf = induced_distribution(ShapingProfile(m=m, probs=probs)).pmf()
            energy = float(pmf @ (x * x))
            sigma = noise_std if snr_db is None else sigma_for_snr(energy, snr_db)
            return awgn_mi(x, pmf, sigma)

        axis = np.linspace(0.0, 1.0, 51)
        grid_best = max(mi_at((a, b)) for a in axis for b in axis)
        result = optimize_profile(m, 2, noise_std, snr_db=snr_db)
        assert result.mi_bpcu >= grid_best - 1e-9

    def test_active_bound_is_exact(self):
        # at sigma = 5 the optimum of 16-ASK sits on the p1 = 1 face
        result = optimize_profile(4, 2, 5.0)
        assert result.profile.probs[0] == 1.0
        assert result.profile.probs[1] == pytest.approx(0.1105, abs=1e-3)

    def test_warm_start_agrees_with_cold(self):
        cold = optimize_profile(3, 2, snr_db=11.0)
        warm = optimize_profile(3, 2, snr_db=11.0, warm_start=(0.1, 0.3))
        assert warm.mi_bpcu == pytest.approx(cold.mi_bpcu, abs=1e-6)

    @pytest.mark.parametrize("start", [
        (0.1,), (0.1, 0.3, 0.2), ((0.1, 0.3),), ((0.1,), (0.2, 0.3)), ("a", "b"), 0.1,
        (0.1, float("nan")), (0.1, float("inf")), (-float("inf"), 0.1),
    ])
    def test_rejects_malformed_warm_start(self, monkeypatch, start):
        monkeypatch.setattr(midist, "awgn_mi", _never_called)
        with pytest.raises(ParameterError, match="warm_start"):
            optimize_profile(3, 2, snr_db=11.0, warm_start=start)

    def test_warm_start_outside_the_box_is_clipped(self):
        clipped = optimize_profile(3, 2, snr_db=11.0, warm_start=(0.0, 1.0))
        outside = optimize_profile(3, 2, snr_db=11.0, warm_start=(-3.0, 7.0))
        assert outside == clipped

    def test_p4_embeds_p2(self):
        # two-source optima embed in the four-source space, so the result
        # must not fall behind P=2
        result = optimize_profile(5, 4, snr_db=18.0)
        pair = optimize_profile(5, 2, snr_db=18.0)
        assert result.mi_bpcu >= pair.mi_bpcu - 1e-3
        assert all(0.0 <= p <= 0.5 for p in result.profile.probs)

    def test_optimized_curve_nondecreasing_gain(self):
        grid = np.arange(8.0, 14.01, 2.0)
        shaped = mi_curve_optimized(3, 2, grid)
        uniform = mi_curve_for_profile(ShapingProfile(m=3, probs=(0.5, 0.5)), grid)
        for s, u in zip(shaped.mi_bpcu, uniform.mi_bpcu):
            assert s >= u - 1e-9
        assert shaped.profiles is not None
        assert len(shaped.profiles) == len(grid)


class TestOptimizerQuality:
    """The box minimizer against the benchmark's recorded optima."""

    REFERENCE = json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
    )

    # awgn_mi calls per warm-started sweep: L-BFGS-B's 33 and 57, counted
    # the same way, plus 10%
    @pytest.mark.parametrize("m, P, budget", [(5, 2, 36), (6, 16, 63)])
    def test_reference_sweeps(self, monkeypatch, m, P, budget):
        ref = self.REFERENCE[f"m{m}_P{P}"]
        results = []
        optimize = midist.optimize_profile

        def spy(*args, **kwargs):
            results.append(optimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(midist, "optimize_profile", spy)
        curve = mi_curve_optimized(m, P, ref["snr_db"])
        assert len(results) == len(ref["snr_db"])
        for snr, mi, best, result in zip(ref["snr_db"], curve.mi_bpcu, ref["mi_bpcu"], results):
            assert mi >= best - 1e-6, snr
            assert result.kkt_residual <= 1e-4, snr
        assert sum(result.evaluations for result in results) <= budget

    @pytest.mark.parametrize("corner", [0.0, 1.0])
    def test_cold_p16_from_a_corner(self, corner):
        result = optimize_profile(6, 16, snr_db=30.0, warm_start=(corner,) * 16)
        # every step costs at least one evaluation, so this stopped on a
        # tolerance before the iteration cap
        assert result.evaluations < midist._MAX_ITERATIONS
        assert result.kkt_residual < 1e-3


class TestGapsAndSlope:
    def test_gap_between_identical_curves_is_zero(self):
        prof = ShapingProfile(m=3, probs=(0.08, 0.28))
        grid = np.arange(6.0, 14.01, 1.0)
        a = mi_curve_for_profile(prof, grid)
        b = mi_curve_for_profile(prof, grid)
        assert mi_gap_db(a, b, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_shaping_gain_positive(self):
        grid = np.arange(6.0, 18.01, 0.5)
        shaped = mi_curve_for_profile(ShapingProfile(m=3, probs=(0.08, 0.28)), grid)
        uniform = mi_curve_for_profile(ShapingProfile(m=3, probs=(0.5, 0.5)), grid)
        # uniform needs more SNR to hit 2.4 bpcu
        assert mi_gap_db(uniform, shaped, 2.4) > 0.1

    def test_rate_loss_to_db_zero(self):
        grid = np.arange(14.0, 20.01, 0.5)
        curve = mi_curve_for_profile(ShapingProfile(m=5, probs=(0.04, 0.24)), grid)
        assert rate_loss_to_db(0.0, curve, 3.0) == 0.0

    def test_rate_loss_to_db_scales_linearly(self):
        grid = np.arange(14.0, 20.01, 0.5)
        curve = mi_curve_for_profile(ShapingProfile(m=5, probs=(0.04, 0.24)), grid)
        one = rate_loss_to_db(0.005, curve, 3.0)
        two = rate_loss_to_db(0.010, curve, 3.0)
        assert two == pytest.approx(2.0 * one, rel=1e-9)
        # the curve climbs roughly 0.16 bpcu per dB here
        assert one == pytest.approx(0.005 / 0.16, rel=0.25)

    def test_rate_loss_to_db_rejects_negative(self):
        grid = np.arange(14.0, 20.01, 0.5)
        curve = mi_curve_for_profile(ShapingProfile(m=5, probs=(0.04, 0.24)), grid)
        with pytest.raises(ParameterError):
            rate_loss_to_db(-0.001, curve, 3.0)
