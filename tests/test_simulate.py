"""AWGN Monte Carlo harness tests."""

import dataclasses

import numpy as np
import pytest

from signshape import (
    ParameterError,
    ShaperConfig,
    ShapingProfile,
    SimConfig,
    awgn_mi,
    build_ask,
    induced_distribution,
    run,
    sigma_for_snr,
)
from signshape import shaper
from signshape.simulate import _decide_ranks


def sim(m=3, probs=(0.04, 0.24), n=256, blocks=8, sigma=1.0, mode="block-dm", seed=0):
    shaper = ShaperConfig(
        profile=ShapingProfile(m=m, probs=tuple(probs)), n=n, rng_seed=seed, mode=mode
    )
    return SimConfig(
        shaper=shaper, noise_std=sigma, num_blocks=blocks, rng_seed=seed
    )


class TestDemap:
    """The nearest-symbol decision, on the rank scale."""

    def test_exact_points_map_to_themselves(self):
        c = build_ask(3)
        np.testing.assert_array_equal(_decide_ranks(c.points(), 8), np.arange(8))

    def test_midpoint_goes_to_smaller(self):
        # 0 lies between ranks 3 and 4 (symbols -1 and +1), 2 between 4 and 5
        np.testing.assert_array_equal(_decide_ranks(np.array([0.0, 2.0]), 8), [3, 4])

    def test_clipping(self):
        np.testing.assert_array_equal(_decide_ranks(np.array([-55.0, 55.0]), 8), [0, 7])

    def test_vectorized(self):
        y = np.array([-10.0, -1.2, 0.4, 2.9])
        np.testing.assert_array_equal(_decide_ranks(y, 4), [0, 1, 2, 3])


class TestRun:
    def test_deterministic(self):
        a = run(sim(seed=5))
        b = run(sim(seed=5))
        assert a.symbol_error_rate == b.symbol_error_rate
        assert a.mi_estimate == b.mi_estimate
        np.testing.assert_array_equal(
            a.empirical_distribution, b.empirical_distribution
        )

    def test_block_dm_looks_matchers_up_once(self, monkeypatch):
        config = sim(blocks=4)
        config.shaper.dm_codes
        calls = []
        real = shaper.dm_code
        monkeypatch.setattr(shaper, "dm_code", lambda *a: calls.append(a) or real(*a))
        run(config)
        assert calls == []

    def test_seed_matters(self):
        a = run(sim(seed=1))
        b = run(sim(seed=2))
        assert a.symbol_error_rate != b.symbol_error_rate

    def test_noiseless_is_error_free(self):
        report = run(sim(sigma=0.0, blocks=4))
        assert report.symbol_error_rate == 0.0
        assert report.shaping_bit_error_rate == 0.0

    def test_noiseless_mi_is_source_entropy(self):
        # with no noise the plug-in estimate degenerates to H(X)
        cfg = sim(m=3, probs=(0.1, 0.4), n=4096, blocks=8, sigma=0.0)
        report = run(cfg)
        dist = induced_distribution(ShapingProfile(m=3, probs=(0.1, 0.4)))
        pmf = dist.pmf()
        entropy = -np.sum(pmf * np.log2(pmf))
        assert report.mi_estimate == pytest.approx(entropy, abs=0.05)

    def test_ser_increases_with_noise(self):
        # common seeds give coupled noise draws
        reports = [run(sim(sigma=s, seed=3)) for s in (0.5, 1.0, 2.0, 4.0)]
        sers = [r.symbol_error_rate for r in reports]
        assert sers == sorted(sers)

    def test_huge_noise_scrambles(self):
        report = run(sim(m=5, probs=(0.04, 0.24), n=1024, blocks=4, sigma=500.0))
        assert report.symbol_error_rate > 0.9

    def test_energy_matches_distribution(self):
        cfg = sim(m=5, probs=(0.04, 0.24), n=2048, blocks=32, sigma=1.0, seed=7)
        report = run(cfg)
        dist = induced_distribution(ShapingProfile(m=5, probs=(0.04, 0.24)))
        # 3 sigma of the block-mean energy spread
        x2 = np.arange(-31, 32, 2, dtype=float) ** 2
        var = float(dist.pmf() @ x2**2) - dist.average_energy**2
        tol = 3.0 * np.sqrt(var / report.num_symbols)
        assert abs(report.empirical_energy - dist.average_energy) < tol

    def test_mi_estimate_tracks_quadrature(self):
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        dist = induced_distribution(prof)
        sigma = sigma_for_snr(dist.average_energy, 24.0)
        cfg = sim(m=5, probs=(0.04, 0.24), n=4096, blocks=25, sigma=sigma, seed=11)
        report = run(cfg)
        truth = awgn_mi(build_ask(5).points(), dist.pmf(), sigma)
        assert report.mi_estimate == pytest.approx(truth, abs=0.05)

    def test_ideal_mode(self):
        report = run(sim(mode="ideal-sources", blocks=4))
        assert report.num_symbols == 4 * 256
        assert report.overflow_mean == 0.0

    def test_overflow_stats(self):
        report = run(sim(m=4, probs=(0.0, 0.5), n=128, blocks=16, sigma=0.5))
        assert report.overflow_max >= report.overflow_mean > 0

    def test_report_dict(self):
        d = dataclasses.asdict(run(sim(blocks=2)))
        assert set(d) >= {
            "num_symbols",
            "empirical_energy",
            "symbol_error_rate",
            "shaping_bit_error_rate",
            "mi_estimate",
        }

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            SimConfig(shaper=sim().shaper, noise_std=-1.0, num_blocks=1)
        with pytest.raises(ParameterError):
            SimConfig(shaper=sim().shaper, noise_std=1.0, num_blocks=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_noise(self, sigma):
        with pytest.raises(ParameterError):
            SimConfig(shaper=sim().shaper, noise_std=sigma, num_blocks=1)
