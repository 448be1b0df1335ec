"""Loss budget composition tests."""

import dataclasses

import numpy as np
import pytest

from signshape import (
    ParameterError,
    ShapingProfile,
    loss_budget,
    mi_curve_for_profile,
    rate_loss,
    rate_loss_to_db,
    switch_energy_loss,
)


class TestLossBudget:
    def test_components_sum_exactly(self):
        report = loss_budget(5, 0.04, 0.24, 2048, 17.0)
        assert report.total_db == (
            report.quantization_db + report.matcher_db + report.switch_db
        )

    def test_operating_point_example(self):
        report = loss_budget(5, 0.04, 0.24, 2048, 17.0)
        assert report.quantization_db == pytest.approx(0.1, abs=0.02)
        assert report.matcher_db == pytest.approx(0.03, abs=0.02)
        assert report.switch_db == pytest.approx(0.015, abs=0.02)
        assert report.total_db == pytest.approx(0.145, abs=0.02)

    def test_quantization_is_the_long_block_budget(self):
        # quantization_db does not depend on n; the finite-length terms
        # shrink toward it as n grows
        short = loss_budget(5, 0.04, 0.24, 512, 17.0)
        long = loss_budget(5, 0.04, 0.24, 131072, 17.0)
        assert short.quantization_db == long.quantization_db
        assert long.matcher_db + long.switch_db < short.matcher_db + short.switch_db

    def test_matcher_term_is_average_of_halves(self):
        n = 2048
        report = loss_budget(5, 0.04, 0.24, n, 17.0)
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        curve = mi_curve_for_profile(prof, np.arange(15.0, 19.01, 0.25))
        mean_loss = 0.5 * (rate_loss(n // 2, 0.04) + rate_loss(n // 2, 0.24))
        expected = rate_loss_to_db(mean_loss, curve, report.operating_rate_bpcu)
        assert report.matcher_db == pytest.approx(expected, rel=1e-6)

    def test_switch_term_matches_module(self):
        report = loss_budget(5, 0.04, 0.24, 2048, 17.0)
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        assert report.switch_db == pytest.approx(switch_energy_loss(prof, 2048))

    def test_quantization_shrinks_with_snr(self):
        # the gap to the Shannon benchmark narrows as ASK saturates less
        lo = loss_budget(5, 0.04, 0.24, 2048, 15.0)
        hi = loss_budget(5, 0.04, 0.24, 2048, 18.0)
        assert lo.operating_rate_bpcu < hi.operating_rate_bpcu
        assert lo.quantization_db == pytest.approx(
            lo.snr_db - 10 * np.log10(2 ** (2 * lo.operating_rate_bpcu) - 1),
            abs=1e-12,
        )

    def test_longer_blocks_cheaper(self):
        a = loss_budget(5, 0.04, 0.24, 512, 17.0)
        b = loss_budget(5, 0.04, 0.24, 4096, 17.0)
        assert a.matcher_db > b.matcher_db
        assert a.switch_db > b.switch_db

    def test_to_dict(self):
        d = dataclasses.asdict(loss_budget(5, 0.04, 0.24, 2048, 17.0))
        assert set(d) == {
            "snr_db",
            "operating_rate_bpcu",
            "quantization_db",
            "matcher_db",
            "switch_db",
            "total_db",
        }

    def test_rejects_bad_profile(self):
        with pytest.raises(ParameterError):
            loss_budget(5, -0.1, 0.24, 2048, 17.0)
