"""Mutual information, quadrature accuracy, and profile optimization tests."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from signshape.midist import _capacity_snr_db, _pchip

from helpers import full_band_awgn_mi, full_band_exp_table, trapezoid_mi


def uniform_dist(m):
    return induced_distribution(ShapingProfile(m=m, probs=(0.5,) * (2 ** (m - 2))))


def spacing(x, sigma):
    """The spacing awgn_mi works with, in noise standard deviations."""
    z = np.asarray(x, dtype=float) / sigma
    return float(z[1] - z[0]) if z.size > 1 else 0.0


def reach(order=64):
    """sqrt(920) + sqrt(2) max|t_k| + 1e-9, as awgn_mi's docstring states it."""
    top = float(math.sqrt(2.0) * np.polynomial.hermite.hermgauss(order)[0][-1])
    return math.sqrt(920.0) + top + 1e-9


def window(x, sigma, order=64):
    """The W of awgn_mi's docstring: offsets kept on each side of 0."""
    M, step = len(x), spacing(x, sigma)
    return M - 1 if step == 0 else min(M - 1, int(reach(order) / abs(step)))


def stated_grad_bound(M, W, K=64):
    """The bytes awgn_mi's docstring bounds its arrays by, with grad=True (w = 2)."""
    B = 2 * W + 1
    return 8 * (2 * M * B + 5 * B * K + 6 * M * (K + 1)) + (256 << 10)


class TestChannelSpec:
    """Noise level versus SNR for a given symbol energy."""

    def test_snr_roundtrip(self):
        dist = uniform_dist(5)
        sigma = sigma_for_snr(dist.average_energy, 24.0)
        assert snr_db_for(dist.average_energy, sigma) == pytest.approx(24.0)

    def test_snr_of_tiny_sigma_is_finite(self):
        # energy / sigma^2 overflowed to inf here, and divided by 0 at 1e-300
        assert snr_db_for(1.0, 1e-160) == pytest.approx(3200)
        assert snr_db_for(1.0, 1e-300) == pytest.approx(6000)

    def test_capacity_snr(self):
        # 10 log10(2^(2r) - 1) as budget and dm rate-loss wrote it; at
        # r = 1e-20, 2^(2r) rounds to 1 and that form took log10(0)
        for rate in (0.5, 3.0, 4.5):
            assert _capacity_snr_db(rate) == 10.0 * math.log10(2.0 ** (2.0 * rate) - 1.0)
        assert _capacity_snr_db(1e-20) == pytest.approx(10.0 * math.log10(2e-20 * math.log(2)))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ParameterError):
            snr_db_for(uniform_dist(3).average_energy, 0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ParameterError):
            snr_db_for(uniform_dist(3).average_energy, sigma)

    @pytest.mark.parametrize("energy", [0.0, -1.0])
    def test_sigma_for_snr_rejects_nonpositive_energy(self, energy):
        with pytest.raises(ParameterError, match="energy"):
            sigma_for_snr(energy, 10.0)


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

    @pytest.mark.parametrize("sigma", [0.01, 0.03, 0.1])
    def test_large_alphabet_at_small_sigma_counts_as_equally_spaced(self, sigma):
        # z = x / sigma reaches 5e5 at m = 14, sigma = 0.03, where its
        # rounding alone passed the old 1e-12 (1 + |step|) spacing tolerance
        x = build_ask(14).points()
        assert awgn_mi(x, np.full(x.size, 1.0 / x.size), sigma) == pytest.approx(14.0)

    @pytest.mark.parametrize("sigma", [0.01, 0.03, 1.0])
    @pytest.mark.parametrize("where", [1, 8191, 16382])
    def test_rejects_grid_perturbed_by_1e9_relative(self, sigma, where):
        x = build_ask(14).points()
        x[where] += 1e-9 * (x[1] - x[0])
        with pytest.raises(ParameterError, match="equally spaced"):
            awgn_mi(x, np.full(x.size, 1.0 / x.size), sigma)

    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_order_below_one(self, order):
        with pytest.raises(ParameterError, match="order"):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0, order)

    @pytest.mark.parametrize("order", [64.5, True, 64.0, "64"])
    def test_rejects_order_that_is_no_integer(self, order):
        # 64.5 ended in hermgauss's TypeError, and True ran as order 1
        with pytest.raises(ParameterError, match="order must be an integer"):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0, order=order)

    def test_takes_a_numpy_integer_order(self):
        x, pmf = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
        assert awgn_mi(x, pmf, 1.0, order=np.int64(16)) == awgn_mi(x, pmf, 1.0, order=16)

    @pytest.mark.parametrize("grad", [False, True])
    def test_non_finite_mi_is_numerical_error(self, monkeypatch, grad):
        shift, minus_t2, weights = midist._quadrature(16)
        monkeypatch.setattr(midist, "_quadrature",
                            lambda order: (shift, minus_t2, weights * math.nan))
        with pytest.raises(NumericalError, match="non-finite"):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0, 16, grad=grad)

    def test_rejects_order_above_max(self):
        # numpy's Gauss-Hermite weights are NaN from order 372, which used
        # to end in NumericalError; a huge order built a huge matrix first
        assert 0 < awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0, 360) < 1
        with pytest.raises(ParameterError, match="order"):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0, 361)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), -1.0)

    def test_rejects_pmf_of_another_length(self):
        with pytest.raises(ParameterError, match="equal length"):
            awgn_mi(np.array([-1.0, 1.0]), np.array([0.25, 0.25, 0.5]), 1.0)

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

    @pytest.mark.parametrize("sigma", [1e306, 1e307, 1.7e308])
    def test_noise_far_above_the_points(self, sigma):
        # the window's reach over the step is inf from about 1e307 on: int()
        # of it raised OverflowError
        x, pmf = build_ask(3).points(), np.full(8, 1 / 8)
        assert 0 <= awgn_mi(x, pmf, sigma) < 1e-12
        assert 0 <= awgn_mi(x, pmf, sigma, grad=True)[0] < 1e-12

    def test_memory_cap(self):
        # the cap counts the M x (2W + 1) band and its index: 4096-ASK runs
        # where its window is narrow (W = 22 at sigma = 1), and where the
        # window is full (sigma = 200, a 544 MB bound) it is refused before
        # anything is allocated
        x, pmf = build_ask(12).points(), np.full(4096, 1 / 4096)
        assert window(x, 1.0) == 22 and window(x, 200.0) == 4095
        assert 0 < awgn_mi(x, pmf, 1.0) <= 12
        for grad in (False, True):
            tracemalloc.start()
            try:
                with pytest.raises(ParameterError, match="cap"):
                    awgn_mi(x, pmf, 200.0, grad=grad)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize("m, sigma", [
        # W = 3, then 22 at sigma = 1; 11 at sigma = 0.5; M - 1 at the last two
        *(pytest.param(m, 1.0, id=str(m)) for m in (2, 5, 6, 9, 11)),
        pytest.param(9, 0.5, id="9-narrow"),
        pytest.param(11, 0.5, id="11-narrow"),
        pytest.param(6, 30.0, id="6-full"),
        pytest.param(10, 100.0, id="10-full"),
    ])
    def test_peak_within_stated_bound(self, m, sigma):
        x, pmf = build_ask(m).points(), np.full(1 << m, 1.0 / (1 << m))
        awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0)  # caches the rule
        midist._band_index.cache_clear()  # a first call builds the index
        tracemalloc.start()
        try:
            awgn_mi(x, pmf, sigma, grad=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stated_grad_bound(1 << m, window(x, sigma))

    @pytest.mark.parametrize("m, sigma", [(9, 0.5), (6, 30.0), (10, 100.0)])
    def test_peak_off_the_mirror_within_stated_bound(self, m, sigma):
        # a tilted pmf is not its own mirror, so every row of the band is built
        x = build_ask(m).points()
        pmf = np.linspace(0.5, 1.5, x.size) / x.size
        awgn_mi(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0)
        midist._band_index.cache_clear()
        tracemalloc.start()
        try:
            awgn_mi(x, pmf, sigma, grad=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stated_grad_bound(1 << m, window(x, sigma))

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


def child_rss_delta(m, sigma):
    """ru_maxrss growth, in bytes, of one gradient call on uniform 2^m-ASK in a
    child whose heap is capped, so that a regression to M x M x order arrays
    fails fast with MemoryError instead of exhausting the host; BLAS runs
    one thread, whose packing buffers are not awgn_mi's arrays."""
    child = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_DATA, (1 << 30, 1 << 30))\n"
        "import numpy as np\n"
        "from signshape import awgn_mi, build_ask\n"
        "awgn_mi([-1.0, 1.0], [0.5, 0.5], 1.0, grad=True)\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"x = build_ask({m}).points()\n"
        f"awgn_mi(x, np.full(x.size, 1.0 / x.size), {sigma}, grad=True)\n"
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
    return (peak_kib - base_kib) * 1024


class TestMiMemory:
    def test_2048_ask_gradient_rss_within_stated_bound(self):
        x = build_ask(11).points()
        assert child_rss_delta(11, 1.0) <= stated_grad_bound(2048, window(x, 1.0))

    def test_2048_ask_full_window_rss_within_stated_bound(self):
        x = build_ask(11).points()
        assert window(x, 100.0) == 2047
        assert child_rss_delta(11, 100.0) <= stated_grad_bound(2048, 2047)

    def test_4096_ask_gradient_rss_within_stated_bound(self):
        # its full band would be refused; at sigma = 1 the window is 22
        x = build_ask(12).points()
        assert child_rss_delta(12, 1.0) <= stated_grad_bound(4096, window(x, 1.0))


def _check_against_full_band(x, pmf, sigma, grad):
    """awgn_mi equals the full-band kernel, and drops only all-zero exp rows."""
    M, W = len(x), window(x, sigma)
    table = full_band_exp_table(spacing(x, sigma), M)
    assert not table[: M - 1 - W].any() and not table[M + W :].any()
    got = awgn_mi(x, pmf, sigma, grad=grad)
    want = full_band_awgn_mi(x, pmf, sigma, grad=grad)
    if not grad:
        assert got == pytest.approx(want, rel=0, abs=1e-12)
        return
    assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    assert got[2] == pytest.approx(want[2], rel=0, abs=1e-12)


class TestWindowedKernel:
    """awgn_mi's windowed band against the full M x (2M - 1) band."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_full_band(self, data):
        m = data.draw(st.integers(1, 8), label="m")
        snr_db = data.draw(st.floats(-10.0, 80.0), label="snr_db")
        grad = data.draw(st.booleans(), label="grad")
        M = 1 << m
        raw = data.draw(st.lists(st.floats(0.0, 1.0), min_size=M, max_size=M), label="pmf")
        # a mirrored pmf, as every induced pmf is, takes awgn_mi's half-row path
        mirrored = data.draw(st.booleans(), label="mirrored")
        if mirrored:
            raw = raw[: M // 2] + raw[M // 2 - 1 :: -1]
        pmf = np.asarray(raw) + (not any(raw))
        pmf /= pmf.sum()
        assert np.array_equal(pmf, pmf[::-1]) or not mirrored
        x = np.arange(-(M - 1), M, 2.0)
        if data.draw(st.booleans(), label="reversed"):
            x = x[::-1].copy()
        sigma = sigma_for_snr(float(pmf @ (x * x)), snr_db)
        _check_against_full_band(x, pmf, sigma, grad)

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("m, sigma, W", [
        (3, 40.0, 7),  # full: 0.05 noise standard deviations apart
        (8, 300.0, 255),
        (3, 0.01, 0),  # a band of one diagonal: 200 apart
        (1, 0.02, 0),
    ])
    def test_full_and_empty_windows(self, m, sigma, W, grad):
        M = 1 << m
        x, pmf = np.arange(-(M - 1), M, 2.0), np.arange(1.0, M + 1) / (M * (M + 1) / 2)
        assert window(x, sigma) == W
        _check_against_full_band(x, pmf, sigma, grad)

    @pytest.mark.parametrize("grad", [False, True])
    def test_symmetric_odd_alphabet_takes_the_full_path(self, grad):
        # the middle row of an odd alphabet is its own mirror, so no rows are halved
        x, pmf = np.array([-2.0, 0.0, 2.0]), np.array([0.3, 0.4, 0.3])
        _check_against_full_band(x, pmf, 0.9, grad)
        got, flipped = awgn_mi(x, pmf, 0.9, grad=True), awgn_mi(x[::-1].copy(), pmf, 0.9, grad=True)
        assert got[0] == pytest.approx(flipped[0], rel=0, abs=1e-13)
        np.testing.assert_allclose(got[1], got[1][::-1], rtol=0, atol=1e-13)
        np.testing.assert_allclose(got[1], flipped[1], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("snr_db", [6.0, 16.0, 30.0])
    def test_pmf_an_ulp_off_its_mirror_agrees_with_the_mirror(self, snr_db):
        # one ulp breaks the exact mirror, so that pmf takes the full path
        x = build_ask(5).points()
        pmf = induced_pmf(5, np.linspace(0.05, 0.45, 8))
        off = pmf.copy()
        off[3] = np.nextafter(off[3], 1.0)
        assert np.array_equal(pmf, pmf[::-1]) and not np.array_equal(off, off[::-1])
        sigma = sigma_for_snr(float(pmf @ (x * x)), snr_db)
        _check_against_full_band(x, off, sigma, grad=True)
        half, full = awgn_mi(x, pmf, sigma, grad=True), awgn_mi(x, off, sigma, grad=True)
        assert half[0] == pytest.approx(full[0], rel=0, abs=1e-13)
        np.testing.assert_allclose(half[1], full[1], rtol=0, atol=1e-13)
        assert half[2] == pytest.approx(full[2], rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 7, 21, 30])
    def test_window_edge(self, n, monkeypatch):
        # 64 points spaced within 20 ulps of reach / n noise standard
        # deviations: where reach / step is exactly n the window keeps row n
        # and row n + 1 is all zeros, and a step an ulp wider drops row n.
        # The window awgn_mi builds its index for is the one stated
        widths = []
        band_index = midist._band_index
        monkeypatch.setattr(
            midist, "_band_index", lambda M, W: widths.append(W) or band_index(M, W))
        pmf = induced_pmf(6, np.linspace(0.05, 0.5, 16))
        s0 = reach() / n
        steps = [s0 + k * math.ulp(s0) for k in range(-20, 21)]
        assert any(reach() / s == n for s in steps)
        for s in steps:
            x = np.arange(64.0) * s
            assert window(x, 1.0) == (n if reach() / s >= n else n - 1)
            _check_against_full_band(x, pmf, 1.0, grad=True)
            assert widths.pop() == window(x, 1.0) and not widths


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

    @pytest.mark.parametrize("mi, rate", [
        ((0.5, 0.5, 0.5), 0.5),
        ((0.2, 0.5, 0.5 + 5e-13), 0.5 + 5e-13),
    ], ids=["flat", "flat-tail"])
    def test_no_rise_at_the_rate_refused(self, mi, rate):
        # a flat curve kept one sample, and _pchip indexed an empty slope array
        curve = MiCurve(snr_db=(0.0, 1.0, 2.0), mi_bpcu=mi)
        with pytest.raises(ParameterError, match="saturated"):
            curve.snr_at_rate(rate)
        with pytest.raises(ParameterError, match="saturated"):
            rate_loss_to_db(0.01, curve, rate)

    def test_one_profile_per_sample(self):
        profile = ShapingProfile(m=5, probs=(0.04, 0.24))
        assert MiCurve((1.0, 2.0), (0.1, 0.2), (profile, profile)).profiles == (profile, profile)
        for profiles in [(profile,), (profile,) * 3]:
            with pytest.raises(ParameterError, match="one profile per sample"):
                MiCurve((1.0, 2.0), (0.1, 0.2), profiles)

    def test_requires_increasing_snr(self):
        with pytest.raises(ParameterError):
            MiCurve(snr_db=(1.0, 1.0), mi_bpcu=(0.5, 0.5))

    @pytest.mark.parametrize("field, value", [
        ("mi_bpcu", (0.3, math.nan)), ("snr_db", (2.0, 1.0)), ("profiles", None),
    ])
    def test_fields_cannot_be_assigned(self, field, value):
        # an assigned (0.3, nan) went past every check, and rate_at_snr read nan
        curve = MiCurve((1.0, 2.0), (0.1, 0.2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(curve, field, value)
        assert curve.rate_at_snr(1.5) == pytest.approx(0.15)

    @pytest.mark.parametrize("snr, mi, match", [
        ((1.0, 2.0), (0.5,), "aligned"),
        ((1.0, 2.0), (0.5, 0.4), "nondecreasing"),
        ((1.0, 2.0), (-0.1, 0.0), "nonnegative"),
        ((16.0, 15.0), None, "strictly increasing"),
        ((15.0, 15.0), None, "strictly increasing"),
        ((15.0,), None, ">= 2"),
        ((15.0, math.nan), None, "finite"),
        # an infinite SNR sample read 0.1 at 2 dB; an infinite or NaN MI sample read nan
        ((15.0, math.inf), None, "finite"),
        ((1.0, math.inf), (0.1, 0.2), "finite"),
        ((1.0, 2.0), (0.1, math.nan), "finite"),
        ((1.0, 2.0), (0.1, math.inf), "finite"),
    ], ids=["misaligned", "decreasing", "negative", "descending-grid", "repeated-grid",
            "one-point-grid", "nan-grid", "inf-grid", "inf-snr", "nan-mi", "inf-mi"])
    def test_rejects_samples_that_are_no_mi_curve(self, monkeypatch, snr, mi, match):
        with pytest.raises(ParameterError, match=match):
            MiCurve(snr_db=snr, mi_bpcu=(0.5,) * len(snr) if mi is None else mi)
        if mi is not None:
            return
        # a grid no curve can take is refused before any point is optimized or evaluated
        optimized = []
        monkeypatch.setattr(midist, "optimize_profile", lambda *a, **k: optimized.append(a))
        monkeypatch.setattr(midist, "awgn_mi", _never_called)
        with pytest.raises(ParameterError, match=match):
            mi_curve_optimized(6, 16, snr)
        with pytest.raises(ParameterError, match=match):
            mi_curve_for_profile(ShapingProfile(m=6, probs=(0.04, 0.24)), snr)
        assert optimized == []


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

    @pytest.mark.parametrize("num_distinct", [2.0, True, "2"])
    def test_rejects_num_distinct_that_is_no_integer(self, monkeypatch, num_distinct):
        # 2.0 ended in TypeError: can't multiply sequence by non-int
        monkeypatch.setattr(midist, "awgn_mi", _never_called)
        with pytest.raises(ParameterError, match="num_distinct must be an integer"):
            optimize_profile(5, num_distinct, snr_db=16.0)

    @pytest.mark.parametrize("num_distinct", [0, -1])
    def test_sweep_rejects_num_distinct_below_one(self, monkeypatch, num_distinct):
        # -1 ended in numpy's ValueError: negative dimensions are not allowed
        monkeypatch.setattr(midist, "awgn_mi", _never_called)
        with pytest.raises(ParameterError, match="num_distinct"):
            mi_curve_optimized(5, num_distinct, [16.0, 17.0])

    @pytest.mark.parametrize("m, P, grid", [(5, 2, [14.0, 15.0, 16.0]), (6, 16, [28.0, 29.0])])
    def test_calls_go_through_the_module_attributes(self, monkeypatch, m, P, grid):
        # perfbench's tracer counts awgn_mi and induced_pmf calls by rebinding
        # these module attributes; a call around them would count 0 and pass
        calls = {"awgn_mi": 0, "induced_pmf": 0}
        for name in calls:
            def counting(*args, _inner=getattr(midist, name), _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(midist, name, counting)
        results = []
        optimize = midist.optimize_profile
        monkeypatch.setattr(
            midist, "optimize_profile", lambda *a, **k: results.append(optimize(*a, **k)) or results[-1])
        mi_curve_optimized(m, P, grid)
        evaluations = sum(result.evaluations for result in results)
        assert len(results) == len(grid)
        assert calls["awgn_mi"] == evaluations > 0
        assert calls["induced_pmf"] >= evaluations

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

    def test_failed_line_search_returns_the_start(self):
        # the gradient claims descent where the function climbs, so no step
        # passes Armijo's test: after _MAX_HALVINGS halvings the start returns
        calls = []

        def uphill(x):
            calls.append(x)
            return float(x.sum()), -np.ones_like(x)

        x, f, g = midist._minimize_on_box(uphill, np.full(3, 0.5))
        np.testing.assert_array_equal(x, 0.5)
        assert (f, len(calls)) == (1.5, 1 + midist._MAX_HALVINGS)

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

    # awgn_mi calls per sweep, 21 and 42 when the curvature pairs and an
    # extrapolated start carry from point to point, plus 10%; starting each
    # point from the last profile alone took 28 and 52
    @pytest.mark.parametrize("m, P, budget", [(5, 2, 23), (6, 16, 46)], ids=["m5-P2", "m6-P16"])
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

    # acceptance's GRID_32 and GRID_64, each with its sweep's awgn_mi calls, which
    # were 156, 720 and 138 from the last profile alone
    @pytest.mark.parametrize("m, P, grid, budget", [
        (5, 2, np.arange(6.0, 20.01, 0.5), 110),
        (5, 8, np.arange(6.0, 20.01, 0.5), 480),
        (6, 16, np.arange(26.0, 34.01, 0.5), 110),
    ], ids=["grid32-p2", "grid32-p8", "grid64-p16"])
    def test_continuation_lands_where_a_cold_start_does(self, m, P, grid, budget):
        results = list(midist._warm_sweep(m, P, "snr_db", grid))
        for snr, result in zip(grid, results):
            cold = optimize_profile(m, P, snr_db=snr)
            assert result.mi_bpcu >= cold.mi_bpcu - 1e-5, snr
            assert result.kkt_residual <= 1e-3, snr
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

    def test_rate_loss_to_db_on_a_flat_curve_is_numerical_error(self):
        # the rate just above the 1 to 3 dB plateau is reached at 2.1 dB, where
        # the curve's central difference is 0
        curve = MiCurve(snr_db=(0.0, 1.0, 2.0, 3.0, 4.0), mi_bpcu=(0.0, 1.0, 1.0, 1.0, 1 + 2e-12))
        with pytest.raises(NumericalError, match="slope"):
            rate_loss_to_db(0.01, curve, 1 + 1e-12)

    def test_rate_loss_to_db_refuses_a_loss_of_the_whole_rate(self):
        # the slope there is about 2e-11 bpcu/dB: 0.0045 bpcu read as 3e8 dB
        curve = mi_curve_for_profile(ShapingProfile(m=5, probs=(0.04, 0.24)),
                                     np.arange(-102.0, -97.99, 0.25))
        rate = curve.rate_at_snr(-100.0)
        with pytest.raises(ParameterError, match=r"rate loss 0\.0045 bpcu .* rate 7\.21e-11 bpcu"):
            rate_loss_to_db(0.0045, curve, rate)
        with pytest.raises(ParameterError, match="operating rate"):
            rate_loss_to_db(rate, curve, rate)
        assert rate_loss_to_db(rate / 2, curve, rate) > 0

    def test_rate_loss_to_db_negative_is_a_gain(self):
        # rate_loss(64, 0.01) is -0.013: round(n p) overshoots n p
        grid = np.arange(14.0, 20.01, 0.5)
        curve = mi_curve_for_profile(ShapingProfile(m=5, probs=(0.04, 0.24)), grid)
        assert rate_loss_to_db(-0.001, curve, 3.0) == -rate_loss_to_db(0.001, curve, 3.0)
        for loss in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                rate_loss_to_db(loss, curve, 3.0)
