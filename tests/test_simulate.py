"""AWGN Monte Carlo harness tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from signshape.shaper import _CHUNK_SYMBOLS, _DRAW_SYMBOLS
from signshape.simulate import _BAND, _band_mi, _decide_ranks

from helpers import dense_plugin_mi, loop_simulate_run


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

    @pytest.mark.filterwarnings("error")
    def test_clipping(self):
        # beyond 2^63 the int64 cast, when it came before the clip, warned and
        # decided rank 0, for the positive outliers too
        y = np.array([-55.0, 55.0, 1e300, -1e300, 2e19, -2e19])
        np.testing.assert_array_equal(_decide_ranks(y, 8), [0, 7, 7, 0, 7, 0])

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

    @pytest.mark.parametrize("sigma", [0.05, 0.24])
    def test_1024_ask_runs_at_small_sigma(self, sigma):
        # a dense 1024 x (8 * 1023 / sigma + 40) histogram would pass 256 MB here
        report = run(sim(m=10, probs=(0.04, 0.24), n=256, blocks=2, sigma=sigma))
        assert report.symbol_error_rate == 0.0
        assert 0 < report.mi_estimate <= 10

    @pytest.mark.parametrize("sigma", [1e-300, 5e-324])
    def test_rejects_oversized_histogram(self, sigma):
        # bin indices of about 8 * 1023 / sigma do not fit in int64
        with pytest.raises(ParameterError, match="int64"):
            SimConfig(shaper=sim(m=10).shaper, noise_std=sigma, num_blocks=1)

    def test_histogram_cap_boundary(self):
        # the smallest sigma accepted puts the top bin index near 2^62
        edge = 8 * 1023 / 2**62
        run(SimConfig(shaper=sim(m=10, n=2).shaper, noise_std=edge * 1.001, num_blocks=1))
        with pytest.raises(ParameterError, match="int64"):
            SimConfig(shaper=sim(m=10).shaper, noise_std=edge * 0.999, num_blocks=1)
        SimConfig(shaper=sim(m=10).shaper, noise_std=0.0, num_blocks=1)

    def test_histogram_span_boundary(self):
        # the histogram spans 2 (M - 1 + 5 sigma): at sigma = 1.7e308 that
        # was inf, and run ended in an OverflowError
        report = run(sim(n=2, blocks=1, sigma=1e307))
        assert 0 <= report.symbol_error_rate <= 1
        for sigma in (1.8e307, 1.7e308):
            with pytest.raises(ParameterError, match="span"):
                SimConfig(shaper=sim().shaper, noise_std=sigma, num_blocks=1)

    def test_rejects_negative_seed(self):
        # numpy's SeedSequence refused it only inside run, with a ValueError
        with pytest.raises(ParameterError, match="rng_seed"):
            SimConfig(shaper=sim().shaper, noise_std=1.0, num_blocks=1, rng_seed=-1)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)], ids=["int64", "uint64"])
    def test_takes_a_numpy_integer_seed(self, seed):
        config = sim(blocks=2, seed=5)
        assert run(dataclasses.replace(config, rng_seed=seed)) == run(config)


class TestBandMi:
    """The band-stored histogram's MI against the same histogram stored whole."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_dense_histogram(self, data):
        # rows that overlap, touch or lie apart, with every cell possibly
        # filled, edge cells included
        M = data.draw(st.integers(1, 8), label="M")
        gaps = data.draw(st.lists(st.integers(0, 80), min_size=M - 1, max_size=M - 1))
        first_bin = np.cumsum([data.draw(st.integers(-50, 50), label="first")] + gaps)
        width = 2 * _BAND + 1
        cells = st.lists(st.sampled_from([0, 0, 1, 2, 7, 1000]), min_size=width, max_size=width)
        band = np.array(data.draw(st.lists(cells, min_size=M, max_size=M)), dtype=np.int64)
        assume(band.any())
        offset = first_bin.min()
        joint = np.zeros((M, int(first_bin.max() - offset) + width), dtype=np.int64)
        for r in range(M):
            joint[r, first_bin[r] - offset :][:width] = band[r]
        assert _band_mi(band, first_bin) == dense_plugin_mi(joint)


class TestChunkedRun:
    """run works a chunk of blocks at a time; the block loop is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_block_loop(self, data):
        # every m in [2, 8], every P dividing M/4, densities at and between
        # 0 and 1, even n divisible by P in [128, 1024], both modes
        m = data.draw(st.integers(2, 8), label="m")
        P = 1 << data.draw(st.integers(0, m - 2), label="log2(P)")
        density = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        probs = data.draw(st.tuples(*[density] * P), label="probs")
        step = max(P, 2)
        n = step * data.draw(st.integers(max(1, 128 // step), 1024 // step), label="n / step")
        rows = _CHUNK_SYMBOLS // n
        # whole chunks plus a remainder, so most runs end on a partial chunk
        blocks = rows * data.draw(st.integers(0, 2)) + data.draw(st.integers(0, rows - 1))
        assume(blocks >= 1)
        M = 1 << m
        sigma = data.draw(st.one_of(st.just(0.0), st.floats(max(0.5, M / 64), 4.0 * M)))
        mode = data.draw(st.sampled_from(["block-dm", "ideal-sources"]))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cfg = sim(m=m, probs=probs, n=n, blocks=blocks, sigma=sigma, mode=mode, seed=seed)
        assert run(cfg) == loop_simulate_run(cfg)

    @pytest.mark.parametrize("mode", ["block-dm", "ideal-sources"])
    @pytest.mark.parametrize("sigma", [0.02, 0.1, 0.3])
    def test_histogram_rows_apart_at_small_sigma(self, mode, sigma):
        # below sigma = 8 / 69 neighbouring rows share no bin
        cfg = sim(m=5, probs=(0.04, 0.24), n=256, blocks=40, sigma=sigma, mode=mode, seed=4)
        assert run(cfg) == loop_simulate_run(cfg)

    @pytest.mark.parametrize("mode", ["block-dm", "ideal-sources"])
    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_blocks_longer_than_a_chunk(self, mode, sigma):
        # n > 16384: every chunk is a single block
        cfg = sim(m=3, probs=(0.05, 0.2), n=16400, blocks=3, sigma=sigma, mode=mode, seed=9)
        assert run(cfg) == loop_simulate_run(cfg)

    def test_run_over_draws(self):
        # two whole draws, then a whole chunk and a partial one; both matchers
        # (length 512, w = 5 and 13) search a table, the second on two words
        n = 1024
        rows, draw = _CHUNK_SYMBOLS // n, _DRAW_SYMBOLS // n
        assert draw % rows == 0
        cfg = sim(m=3, probs=(0.01, 0.025), n=n, blocks=2 * draw + rows + 5, sigma=1.5, seed=5)
        assert [c.w for c in cfg.shaper.dm_codes] == [5, 13]
        assert run(cfg) == loop_simulate_run(cfg)
