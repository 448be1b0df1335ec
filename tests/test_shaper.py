"""Block shaper, symbol codec, reservoir switch, and serialization tests."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from signshape import (
    IntegrityError,
    ParameterError,
    ShapedBlock,
    ShaperConfig,
    ShapingProfile,
    block_from_json,
    block_to_json,
    decode_block,
    effective_probabilities,
    empirical_source_frequencies,
    encode_block_dm,
    encode_block_ideal,
    induced_pmf,
    selection_tables,
    switch_energy_loss,
    switch_excess_expectation,
)
from signshape.cli import main
from signshape.shaper import (
    _assemble,
    _serve_requests,
    _split_symbols,
)

from helpers import exact_excess_expectation, loop_serve_requests, mask_encode_ideal


def config(m=3, probs=(0.04, 0.24), n=256, seed=0, mode="block-dm"):
    return ShaperConfig(
        profile=ShapingProfile(m=m, probs=tuple(probs)), n=n, rng_seed=seed, mode=mode
    )


class TestShaperConfig:
    def test_lengths(self):
        cfg = config(m=3, n=256)
        # two matchers of length 128 at weights 5 and 31, then 2 prefix
        # bits for each of the 256 symbols
        assert [(c.n, c.w) for c in cfg.dm_codes] == [(128, 5), (128, 31)]
        assert cfg.info_length == sum(c.k for c in cfg.dm_codes) + 2 * 256

    def test_rejects_odd_n(self):
        with pytest.raises(ParameterError):
            config(n=255)

    def test_rejects_indivisible_n(self):
        with pytest.raises(ParameterError):
            ShaperConfig(
                profile=ShapingProfile(m=5, probs=(0.1, 0.2, 0.3, 0.4)), n=18
            )

    def test_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            config(mode="stream")


class TestSymbolCodec:
    @given(st.integers(2, 10), st.data())
    def test_inverts_assemble_and_rejects_non_points(self, m, data):
        M = 1 << m
        cfg = ShaperConfig(profile=ShapingProfile(m=m, probs=(0.5,)), n=2)
        ranks = np.arange(M)
        d, sign = ranks % (M // 2), ranks // (M // 2)
        symbols = _assemble(cfg, d, sign.astype(np.uint8), 0).symbols
        np.testing.assert_array_equal(symbols, 2 * ranks - (M - 1))
        got_ranks, got_d, got_sign = _split_symbols(symbols, m)
        np.testing.assert_array_equal(got_ranks, ranks)
        np.testing.assert_array_equal(got_d, d)
        np.testing.assert_array_equal(got_sign, sign)
        # one bad value among good ones: an even integer, an odd integer
        # outside [-(M-1), M-1], or a value that is not an integer at all
        bad = data.draw(
            st.one_of(
                st.integers(-4 * M, 4 * M).map(lambda v: 2 * v),
                st.integers(M // 2, 2**40).map(lambda v: 2 * v + 1),
                st.integers(M // 2, 2**40).map(lambda v: -(2 * v + 1)),
                st.sampled_from([1.0, 1.5, -0.5, "1", None]),
            )
        )
        position = data.draw(st.integers(0, M - 1))
        values = symbols.tolist()
        values[position] = bad
        with pytest.raises(IntegrityError):
            _split_symbols(values, m)


class TestServeRequests:
    def test_exact_supply(self):
        # source indices are 0-based at this layer
        requests = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        served, overflow = _serve_requests(requests, [3, 3])
        np.testing.assert_array_equal(served, requests)
        assert overflow == 0

    def test_overflow_reroutes_late_requests(self):
        # four requests for the first source but only two slots: the last
        # two must be served by the second
        requests = np.array([0, 0, 1, 0, 0, 1], dtype=np.int64)
        served, overflow = _serve_requests(requests, [2, 4])
        np.testing.assert_array_equal(served, [0, 0, 1, 1, 1, 1])
        assert overflow == 2

    def test_vectorized_matches_loop(self):
        # skewed random demand against the per-request reference, with
        # equal capacities, unequal ones, and unequal ones with an empty
        # reservoir
        rng = np.random.default_rng(5)
        for case in range(1200):
            P = int(rng.choice([1, 2, 3, 4, 8, 16]))
            n = P * int(rng.integers(1, 40))
            requests = rng.choice(P, size=n, p=rng.dirichlet(np.ones(P)))
            if case % 3 == 0:
                supply = [n // P] * P
            else:
                weights = rng.dirichlet(np.ones(P))
                if case % 3 == 2 and P > 1:
                    weights[rng.integers(P)] = 0.0
                    weights /= weights.sum()
                supply = rng.multinomial(n, weights).tolist()
            a, oa = _serve_requests(requests, supply)
            b, ob = loop_serve_requests(requests, supply)
            np.testing.assert_array_equal(a, b)
            assert oa == ob

    def test_three_sources_loop(self):
        requests = np.array([2, 2, 2, 0, 1, 2], dtype=np.int64)
        served, overflow = _serve_requests(requests, [2, 2, 2])
        # third source exhausts after two; the overflow request falls back
        # to the lowest-index reservoir with room
        np.testing.assert_array_equal(served, [2, 2, 0, 0, 1, 1])
        assert overflow == 2

    def test_demand_supply_mismatch(self):
        requests = np.array([0, 0, 1, 1], dtype=np.int64)
        with pytest.raises(IntegrityError):
            _serve_requests(requests, [1, 2])


class TestIdealEncoding:
    def test_deterministic(self):
        cfg = config(mode="ideal-sources", seed=42)
        a = encode_block_ideal(cfg)
        b = encode_block_ideal(cfg)
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_seed_changes_output(self):
        a = encode_block_ideal(config(mode="ideal-sources", seed=1))
        b = encode_block_ideal(config(mode="ideal-sources", seed=2))
        assert not np.array_equal(a.symbols, b.symbols)

    def test_symbols_match_distribution(self):
        # chi-square over pooled symbols at significance 0.01
        cfg = config(m=3, probs=(0.1, 0.4), n=4096, mode="ideal-sources")
        counts = np.zeros(8)
        for seed in range(40):
            block = encode_block_ideal(
                ShaperConfig(profile=cfg.profile, n=cfg.n, rng_seed=seed,
                             mode="ideal-sources")
            )
            ranks = (np.asarray(block.symbols) + 7) // 2
            counts += np.bincount(ranks.astype(int), minlength=8)
        expected = induced_pmf(3, (0.1, 0.4)) * counts.sum()
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p_value = stats.chi2.sf(chi2, df=7)
        assert p_value > 0.01

    def test_explicit_bit_source(self):
        # the prefix bits choose the symbol pair in either mode; here they
        # come through the matcher encoder's info layout
        cfg = config(m=3, n=8)
        k = sum(code.k for code in cfg.dm_codes)
        info = np.zeros(cfg.info_length, dtype=np.uint8)
        info[:k] = np.random.default_rng(70).integers(0, 2, size=k)
        block = encode_block_dm(cfg, info)
        # all-zero prefixes: every symbol sits in the d=0 pair {-7, +1}
        assert set(np.asarray(block.symbols)) <= {-7, 1}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_mask_reference(self, data):
        # the switch-served words reproduce the per-source mask scatter
        # byte for byte over every m in [2, 8] and every P dividing M/4
        m = data.draw(st.integers(2, 8), label="m")
        P = 1 << data.draw(st.integers(0, m - 2), label="log2(P)")
        density = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        probs = data.draw(st.tuples(*[density] * P), label="probs")
        step = max(P, 2)
        n = step * data.draw(st.integers(1, 512 // step), label="n / step")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cfg = config(m=m, probs=probs, n=n, seed=seed, mode="ideal-sources")
        block = encode_block_ideal(cfg)
        assert block.overflow_count == 0
        assert block.symbols.tobytes() == mask_encode_ideal(cfg).tobytes()

    def test_mean_energy_close(self):
        cfg = config(m=5, probs=(0.04, 0.24), n=65536, mode="ideal-sources", seed=9)
        block = encode_block_ideal(cfg)
        pmf = induced_pmf(5, (0.04, 0.24))
        target = float(np.sum(pmf * np.arange(-31, 32, 2) ** 2))
        measured = float(np.mean(np.asarray(block.symbols, dtype=float) ** 2))
        assert measured == pytest.approx(target, rel=0.02)


class TestBlockDmEncoding:
    def test_reservoir_weights_exact(self):
        # codeword ones are served as inner-side signs; each matcher output
        # has exactly its design weight
        cfg = config(m=3, probs=(0.04, 0.24), n=512, seed=3)
        src_table, flip_table = selection_tables(3, 2)
        rng = np.random.default_rng(0)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        symbols = np.asarray(block.symbols)
        ranks = (symbols + 7) // 2
        d = ranks % 4
        sign = (ranks >= 4).astype(np.uint8)
        matcher_bits = 1 - (sign ^ flip_table[d])
        served_weights = np.zeros(2, dtype=int)
        # recover who served each slot by replaying the reservoir logic
        requests = src_table[d]
        served, _ = _serve_requests(requests.astype(np.int64), [256, 256])
        for s in (0, 1):
            served_weights[s] = int(matcher_bits[served == s].sum())
        assert served_weights[0] == cfg.dm_codes[0].w
        assert served_weights[1] == cfg.dm_codes[1].w

    def test_roundtrip(self):
        cfg = config(m=3, probs=(0.04, 0.24), n=256, seed=1)
        rng = np.random.default_rng(10)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        np.testing.assert_array_equal(decode_block(block, cfg), info)

    def test_roundtrip_survives_overflow(self):
        # narrow profile forces frequent rerouting; decode must still work
        cfg = config(m=4, probs=(0.0, 0.5), n=128, seed=2)
        rng = np.random.default_rng(20)
        for _ in range(20):
            info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
            block = encode_block_dm(cfg, info)
            assert block.overflow_count > 0
            np.testing.assert_array_equal(decode_block(block, cfg), info)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_any_profile(self, data):
        # every m in [2, 8], every P dividing M/4 (P > 2 included),
        # densities at and between 0 and 1, even n divisible by P up to 512
        m = data.draw(st.integers(2, 8), label="m")
        P = 1 << data.draw(st.integers(0, m - 2), label="log2(P)")
        density = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        probs = data.draw(st.tuples(*[density] * P), label="probs")
        step = max(P, 2)
        n = step * data.draw(st.integers(1, 512 // step), label="n / step")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cfg = ShaperConfig(profile=ShapingProfile(m=m, probs=probs), n=n)
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        np.testing.assert_array_equal(decode_block(block, cfg), info)

    def test_p1_single_source(self):
        cfg = ShaperConfig(profile=ShapingProfile(m=3, probs=(0.2,)), n=64, rng_seed=4)
        rng = np.random.default_rng(30)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        assert block.overflow_count == 0
        np.testing.assert_array_equal(decode_block(block, cfg), info)

    def test_equal_probs_interchangeable(self):
        # with p1 == p2 both reservoirs hold statistically identical bits;
        # decode must be exact regardless of which reservoir served a slot
        cfg = config(m=3, probs=(0.1, 0.1), n=256, seed=5)
        rng = np.random.default_rng(40)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        np.testing.assert_array_equal(decode_block(block, cfg), info)

    def test_wrong_info_length(self):
        cfg = config()
        with pytest.raises(ParameterError):
            encode_block_dm(cfg, np.zeros(cfg.info_length + 1, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [0.5, -1, 2])
    def test_non_binary_info_rejected(self, bad):
        # 0.5 was read as 0 and -1 raised OverflowError in the uint8 cast
        cfg = config()
        info = [0] * cfg.info_length
        info[3] = bad
        with pytest.raises(ParameterError):
            encode_block_dm(cfg, info)

    def test_mode_mismatch_on_decode(self):
        cfg = config(mode="ideal-sources")
        block = encode_block_ideal(cfg)
        with pytest.raises(ParameterError):
            decode_block(block, cfg)

    def test_corrupted_sign_bit_detected(self):
        # swapping a symbol for its same-prefix partner flips exactly one
        # recovered matcher bit, so one reservoir weight comes out wrong
        cfg = config(m=3, probs=(0.04, 0.24), n=256, seed=6)
        rng = np.random.default_rng(50)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        symbols = np.asarray(block.symbols).copy()
        rank = (symbols[7] + 7) // 2
        symbols[7] = 2 * ((rank + 4) % 8) - 7
        bad = ShapedBlock(
            symbols=symbols, overflow_count=block.overflow_count, mode=block.mode
        )
        with pytest.raises(IntegrityError):
            decode_block(bad, cfg)

    def test_negated_symbol_decodes_to_different_prefix(self):
        # negation lands on a valid encoding of other info: the source
        # selection folds the two prefixes together and the matcher bit is
        # unchanged, so no integrity alarm can fire and only prefix info
        # differs
        cfg = config(m=3, probs=(0.04, 0.24), n=256, seed=6)
        rng = np.random.default_rng(50)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        symbols = np.asarray(block.symbols).copy()
        symbols[7] = -symbols[7]
        bent = ShapedBlock(
            symbols=symbols, overflow_count=block.overflow_count, mode=block.mode
        )
        decoded = decode_block(bent, cfg)
        shaping_len = sum(c.k for c in cfg.dm_codes)
        np.testing.assert_array_equal(decoded[:shaping_len], info[:shaping_len])
        assert not np.array_equal(decoded[shaping_len:], info[shaping_len:])

    @pytest.mark.parametrize(
        "m, probs",
        [
            (3, (0.2,)),
            (3, (0.04, 0.24)),
            (4, (0.0, 0.3, 0.6, 1.0)),
            (5, (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0)),
        ],
    )
    def test_single_symbol_corruption(self, m, probs):
        # the documented detection limit: a block with one symbol replaced
        # by any other point either fails an integrity check or is itself
        # the encoding of the info it decodes to
        cfg = config(m=m, probs=probs, n=64, seed=7)
        rng = np.random.default_rng(60)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        symbols = encode_block_dm(cfg, info).symbols
        raised = valid = 0
        for position in range(cfg.n):
            for point in cfg.constellation.symbols:
                if point == symbols[position]:
                    continue
                bent = symbols.copy()
                bent[position] = point
                try:
                    decoded = decode_block(ShapedBlock(bent, 0, "block-dm"), cfg)
                except IntegrityError:
                    raised += 1
                    continue
                np.testing.assert_array_equal(encode_block_dm(cfg, decoded).symbols, bent)
                valid += 1
        assert raised and valid

    def test_out_of_range_symbol_detected(self):
        cfg = config(m=3, probs=(0.04, 0.24), n=256, seed=6)
        info = np.zeros(cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        symbols = np.asarray(block.symbols).copy()
        symbols[0] = 9
        bad = ShapedBlock(
            symbols=symbols, overflow_count=block.overflow_count, mode=block.mode
        )
        with pytest.raises(IntegrityError):
            decode_block(bad, cfg)


class TestSwitchExpectation:
    def test_hand_values(self):
        assert switch_excess_expectation(2) == 0.25
        assert switch_excess_expectation(4) == 0.375

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 50, 128, 200])
    def test_matches_exact_rational_oracle(self, n):
        oracle = float(exact_excess_expectation(n))
        assert switch_excess_expectation(n) == pytest.approx(oracle, rel=1e-12)

    def test_product_form_continuity(self):
        # the running product against the exact rational at large n
        exact = Fraction(4096 * math.comb(4096, 2048), 4 * 2**4096)
        assert switch_excess_expectation(4096) == pytest.approx(
            float(exact), rel=1e-12
        )
        assert switch_excess_expectation(4098) == pytest.approx(
            float(Fraction(4098 * math.comb(4098, 2049), 4 * 2**4098)), rel=1e-9
        )

    def test_grows_like_sqrt(self):
        # eps(n) ~ sqrt(n / (8 pi))
        for n in (1024, 4096, 16384):
            assert switch_excess_expectation(n) == pytest.approx(
                math.sqrt(n / (8.0 * math.pi)), rel=0.001
            )

    def test_rejects_odd(self):
        with pytest.raises(ParameterError):
            switch_excess_expectation(3)


class TestEffectiveProbabilities:
    def test_moves_toward_midpoint(self):
        p1e, p2e = effective_probabilities(0.04, 0.24, 1024)
        assert 0.04 < p1e < 0.14
        assert 0.14 < p2e < 0.24

    def test_sum_conserved_exactly(self):
        p1e, p2e = effective_probabilities(0.04, 0.24, 4096)
        assert p1e + p2e == 0.04 + 0.24

    def test_large_n_vanishes(self):
        p1e, p2e = effective_probabilities(0.04, 0.24, 2**20)
        assert p1e == pytest.approx(0.04, abs=2e-4)


class TestSwitchEnergyLoss:
    def test_positive_for_shaped_profiles(self):
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        for n in (256, 512, 1024, 2048, 4096):
            assert switch_energy_loss(prof, n) > 0

    def test_known_values(self):
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        # frozen from the energy ratio of exact effective probabilities
        assert switch_energy_loss(prof, 1024) == pytest.approx(0.0211, abs=0.0015)
        assert switch_energy_loss(prof, 4096) == pytest.approx(0.0106, abs=0.0015)

    def test_shrinks_with_n(self):
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        losses = [switch_energy_loss(prof, n) for n in (256, 1024, 4096)]
        assert losses == sorted(losses, reverse=True)

    def test_requires_two_sources(self):
        with pytest.raises(ParameterError):
            switch_energy_loss(ShapingProfile(m=3, probs=(0.2,)), 256)

    def test_analyze_switch_consistent(self, tmp_path):
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        assert main(["--out-dir", str(tmp_path), "shape", "analyze-switch",
                     "--m", "5", "--p1", "0.04", "--p2", "0.24",
                     "--n", "1024"]) == 0
        text = (tmp_path / "switch-analysis.json").read_text(encoding="utf-8")
        (analysis,) = json.loads(text)
        assert analysis["n"] == 1024
        assert analysis["epsilon"] == pytest.approx(switch_excess_expectation(1024))
        assert analysis["delta_db"] == pytest.approx(switch_energy_loss(prof, 1024))
        assert (analysis["p1_eff"], analysis["p2_eff"]) == pytest.approx(
            effective_probabilities(0.04, 0.24, 1024)
        )


class TestEmpiricalFrequencies:
    def test_matches_effective_probabilities(self):
        cfg = config(m=5, probs=(0.04, 0.24), n=2048, seed=0)
        freqs, counts = empirical_source_frequencies(cfg, num_blocks=100, seed=1)
        p_eff = effective_probabilities(0.04, 0.24, 2048)
        for i in range(2):
            sd = math.sqrt(p_eff[i] * (1 - p_eff[i]) / counts[i])
            assert abs(freqs[i] - p_eff[i]) < 4.0 * sd


class TestBlockSerialization:
    def test_json_roundtrip(self):
        cfg = config(m=3, probs=(0.04, 0.24), n=256, seed=8)
        rng = np.random.default_rng(60)
        info = rng.integers(0, 2, size=cfg.info_length, dtype=np.uint8)
        block = encode_block_dm(cfg, info)
        text = block_to_json(block, cfg)
        block2, cfg2 = block_from_json(text)
        assert cfg2 == cfg
        np.testing.assert_array_equal(block2.symbols, block.symbols)
        np.testing.assert_array_equal(decode_block(block2, cfg2), info)

    @pytest.mark.parametrize(
        "change",
        [
            lambda doc: doc["header"].update(m="five"),
            lambda doc: doc["header"].update(n=[64]),
            lambda doc: doc["header"].pop("probs"),
            lambda doc: doc.update(overflow_count="x"),
            lambda doc: doc.pop("header"),
        ],
    )
    def test_bad_header_is_parameter_error(self, change):
        cfg = config(m=3, probs=(0.04, 0.24), n=64, seed=8)
        block = encode_block_dm(cfg, np.zeros(cfg.info_length, dtype=np.uint8))
        doc = json.loads(block_to_json(block, cfg))
        change(doc)
        with pytest.raises(ParameterError):
            block_from_json(json.dumps(doc))

    def test_invalid_json_is_parameter_error(self):
        with pytest.raises(ParameterError):
            block_from_json("{not json")

    @pytest.mark.parametrize(
        "change",
        [
            lambda symbols: symbols.__setitem__(1, "x"),
            lambda symbols: symbols.__setitem__(1, 1.5),  # was read as 1
            lambda symbols: symbols.__setitem__(1, 2),
            lambda symbols: symbols.__setitem__(1, 9),
            lambda symbols: symbols.__setitem__(1, None),
            lambda symbols: symbols.__setitem__(1, True),  # was read as 1
            lambda symbols: symbols.__setitem__(1, False),
            lambda symbols: symbols.pop(),
        ],
    )
    def test_bad_payload_is_integrity_error(self, change):
        cfg = config(m=3, probs=(0.04, 0.24), n=64, seed=8)
        block = encode_block_dm(cfg, np.zeros(cfg.info_length, dtype=np.uint8))
        doc = json.loads(block_to_json(block, cfg))
        change(doc["symbols"])
        with pytest.raises(IntegrityError):
            block_from_json(json.dumps(doc))

    def test_tampered_payload_rejected(self):
        cfg = config(m=3, probs=(0.04, 0.24), n=256, seed=8)
        block = encode_block_dm(cfg, np.zeros(cfg.info_length, dtype=np.uint8))
        text = block_to_json(block, cfg)
        corrupted = text.replace("-7", "-9", 1)
        if corrupted != text:
            with pytest.raises(IntegrityError):
                block_from_json(corrupted)
