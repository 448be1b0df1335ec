"""Constellation geometry, labelling, and source-selection tests.

Labels are checked through the shaper's symbol codec, which is the one
place the package maps symbols to (prefix d, sign bit) and back.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from signshape import (
    ParameterError,
    ShaperConfig,
    ShapingProfile,
    build_ask,
    induced_distribution,
    induced_pmf,
    selection_tables,
)
from signshape.shaper import _assemble, _prefix_bits, _prefix_decimals, _split_symbols


def labels(symbols, m):
    """Full m-bit labels, least significant bit first, via the codec."""
    _, d, sign = _split_symbols(np.asarray(symbols), m)
    return [tuple(row) + (int(b),) for row, b in zip(_prefix_bits(d, m).tolist(), sign)]


def ideal_config(m, n):
    return ShaperConfig(
        profile=ShapingProfile(m=m, probs=(0.5,)), n=n, mode="ideal-sources"
    )


class TestBuildAsk:
    def test_4ask(self):
        c = build_ask(2)
        assert c.symbols == (-3, -1, 1, 3)
        assert len(c.symbols) == 4

    def test_8ask(self):
        c = build_ask(3)
        assert c.symbols == (-7, -5, -3, -1, 1, 3, 5, 7)

    def test_32ask_extremes(self):
        c = build_ask(5)
        assert len(c.symbols) == 32
        assert c.symbols[0] == -31
        assert c.symbols[-1] == 31
        diffs = np.diff(c.points())
        assert np.all(diffs == 2.0)

    @pytest.mark.parametrize("bad", [1, 0, -3, 17])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterError):
            build_ask(bad)

    def test_rejects_bool(self):
        with pytest.raises(ParameterError):
            build_ask(True)


class TestLabels:
    def test_rank_roundtrip_8ask(self):
        c = build_ask(3)
        ranks, d, sign = _split_symbols(np.asarray(c.symbols), 3)
        np.testing.assert_array_equal(ranks, np.arange(8))
        np.testing.assert_array_equal(d + 4 * sign, np.arange(8))
        # the decimal value of each label is the rank of its symbol
        for r, label in enumerate(labels(c.symbols, 3)):
            assert sum(b << i for i, b in enumerate(label)) == r

    def test_label_is_lsb_first(self):
        c = build_ask(3)
        # rank 6 = 011 read LSB first
        assert labels([c.symbols[6]], 3) == [(0, 1, 1)]

    def test_sign_bit_is_last_label_bit(self):
        c = build_ask(4)
        for symbol, label in zip(c.symbols, labels(c.symbols, 4)):
            # 0 on the last position means the negative half
            assert (label[-1] == 0) == (symbol < 0)

    def test_symbol_for_label(self):
        # labels (0, 0) and (1, 1): prefix d = 0 and 1, sign bit 0 and 1
        block = _assemble(ideal_config(2, 2), np.array([0, 1]), np.array([0, 1]), 0)
        assert block.symbols.tolist() == [-3, 3]


class TestDecimalValue:
    """LSB-first prefix bits and their decimal value d."""

    def test_examples(self):
        prefixes = np.array([[0, 0], [1, 0], [0, 1]])
        assert _prefix_decimals(prefixes, 3).tolist() == [0, 1, 2]
        assert _prefix_decimals(np.array([[1, 1, 0, 1]]), 5).tolist() == [11]

    def test_exhaustive_length_4(self):
        prefixes = np.array(list(itertools.product((0, 1), repeat=4)))
        expected = [sum(b << i for i, b in enumerate(bits)) for bits in prefixes]
        assert _prefix_decimals(prefixes, 5).tolist() == expected

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_bijective_with_labels(self, bits):
        m = len(bits) + 1
        value = _prefix_decimals(np.array([bits]), m)
        assert _prefix_bits(value, m)[0].tolist() == bits


class TestShapingProfile:
    def test_valid(self):
        p = ShapingProfile(m=5, probs=(0.04, 0.24))
        assert p.num_distinct == 2

    def test_single_source(self):
        p = ShapingProfile(m=3, probs=(0.2,))
        assert p.num_distinct == 1

    def test_full_resolution(self):
        p = ShapingProfile(m=5, probs=tuple([0.1] * 8))
        assert p.num_distinct == 8

    @pytest.mark.parametrize("probs", [(0.1, 0.2, 0.3), (0.1,) * 5])
    def test_rejects_non_divisor_counts(self, probs):
        with pytest.raises(ParameterError):
            ShapingProfile(m=5, probs=probs)

    def test_rejects_out_of_range_prob(self):
        with pytest.raises(ParameterError):
            ShapingProfile(m=3, probs=(0.1, 1.2))

    def test_rejects_too_many_sources(self):
        with pytest.raises(ParameterError):
            ShapingProfile(m=3, probs=(0.1, 0.2, 0.3, 0.4))


class TestInducedDistribution:
    def test_8ask_example(self):
        pmf = induced_pmf(3, (0.1, 0.4))
        expected = [0.025, 0.1, 0.15, 0.225, 0.225, 0.15, 0.1, 0.025]
        np.testing.assert_allclose(pmf, expected, atol=1e-15)

    def test_uniform_when_half(self):
        pmf = induced_pmf(5, (0.5,) * 8)
        np.testing.assert_allclose(pmf, np.full(32, 1 / 32), atol=1e-15)

    def test_sums_to_one(self):
        pmf = induced_pmf(6, (0.01, 0.37))
        assert abs(pmf.sum() - 1.0) < 1e-12

    def test_mirror_symmetry_is_exact(self):
        # bit-exact, not approximate: the two halves reuse the same products
        pmf = induced_pmf(5, (0.043, 0.217))
        assert np.array_equal(pmf, pmf[::-1])

    def test_small_probs_pull_mass_inward(self):
        pmf = induced_pmf(5, (0.04, 0.24))
        # outer quarter of the constellation carries little mass
        assert pmf[:4].sum() < 0.02
        assert pmf[12:20].sum() > 0.4

    def test_average_energy(self):
        dist = induced_distribution(ShapingProfile(m=2, probs=(0.0,)))
        # sign bit always says inner: symbols are only -1 and +1... the
        # conditional leaves ranks 0/3 empty, so energy is 1
        assert dist.average_energy == pytest.approx(1.0)

    def test_conditionals_order(self):
        # P(sign bit 0 | d) is the negative half of the pmf over (1/2)^(m-1)
        cond = induced_pmf(3, (0.1, 0.4))[:4] * 4
        np.testing.assert_allclose(cond, [0.1, 0.4, 0.6, 0.9])


class TestSelectSource:
    """The switch rule: which source serves prefix d, and whether to flip."""

    def test_8ask_two_source_table(self):
        src, flip = selection_tables(3, 2)
        # prefix bits are LSB first: d = b1 + 2*b2; sources are 0-based
        assert list(zip(src.tolist(), flip.tolist())) == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_single_source_always_one(self):
        src, flip = selection_tables(3, 1)
        assert src.tolist() == [0, 0, 0, 0]
        assert flip.tolist() == [0, 0, 1, 1]

    def test_flip_iff_upper_half(self):
        _, flip = selection_tables(5, 2)
        np.testing.assert_array_equal(flip, np.arange(16) >= 8)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_each_source_used_equally(self, m):
        M = 1 << m
        for P in range(1, M // 4 + 1):
            if (M // 4) % P:
                continue
            src, _ = selection_tables(m, P)
            assert np.all(np.bincount(src, minlength=P) == (M // 2) // P)

    def test_accumulated_selection_matches_induced_pmf(self):
        # walking every prefix and weighting by the selected source's
        # probability must reproduce the closed-form distribution
        prof = ShapingProfile(m=5, probs=(0.07, 0.21, 0.33, 0.47))
        src, flip = selection_tables(5, 4)
        pmf = np.zeros(32)
        for d in range(16):
            p_src = prof.probs[src[d]]
            # sign bit 0 -> negative half keeps rank d
            p_negative = p_src if not flip[d] else 1.0 - p_src
            pmf[d] += (1 / 16) * p_negative
            pmf[d + 16] += (1 / 16) * (1 - p_negative)
        np.testing.assert_allclose(pmf, induced_pmf(5, prof.probs), atol=1e-15)

    def test_tables_are_readonly(self):
        src, flip = selection_tables(5, 2)
        assert not src.flags.writeable
        assert not flip.flags.writeable
