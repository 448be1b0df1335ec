"""Block shaper, symbol codec, reservoir switch, and serialization tests."""

import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

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
    decode_block,
    effective_probabilities,
    empirical_source_frequencies,
    encode_block_dm,
    encode_block_ideal,
    selection_tables,
    switch_energy_loss,
    switch_excess_expectation,
)
from signshape import shaper
from signshape.constellation import induced_pmf
from signshape.cli import _block_from_json, _block_to_json, main
from signshape.enumdm import dm_code, unrank
from signshape.shaper import (
    _CHUNK_SYMBOLS,
    _DRAW_SYMBOLS,
    _TABLE_CAP,
    _binomial_columns,
    _block_chunks,
    _encode_dm_rows,
    _matcher_bits,
    _ranks,
    _serve_requests,
    _split_symbols,
    _uniform_info,
    _unrank_rows,
)

from helpers import (
    exact_excess_expectation, loop_serve_requests, loop_source_frequencies, mask_encode_ideal,
    mask_ideal_row, next_block,
)


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

    @pytest.mark.parametrize("mode", ["ideal-sources", "block-dm"])
    def test_length_cap_in_both_modes(self, mode):
        # n / P = 65536 is the longest matcher; ideal-sources takes the same cap
        config(m=3, probs=(0.2,), n=65536, mode=mode)
        config(m=3, probs=(0.1, 0.4), n=131072, mode=mode)
        for probs, n in [((0.2,), 65538), ((0.1, 0.4), 131076), ((0.2,), 4 * 10**9)]:
            with pytest.raises(ParameterError, match="65536"):
                config(m=3, probs=probs, n=n, mode=mode)

    @pytest.mark.parametrize("mode", ["ideal-sources", "block-dm"])
    def test_rejects_negative_seed(self, mode):
        # encode_block_ideal used to fail on it in numpy, with a ValueError
        with pytest.raises(ParameterError, match="rng_seed"):
            config(seed=-1, mode=mode)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7)], ids=["int64", "uint64"])
    def test_takes_a_numpy_integer_seed(self, seed):
        block = encode_block_ideal(config(seed=seed, mode="ideal-sources"))
        expected = encode_block_ideal(config(seed=7, mode="ideal-sources"))
        np.testing.assert_array_equal(block.symbols, expected.symbols)


class TestSymbolCodec:
    @given(st.integers(2, 10), st.data())
    def test_ranks_round_trip_and_rejects_non_points(self, m, data):
        # each prefix d with each served bit is one rank, and _matcher_bits reads the bit back
        M = 1 << m
        d = np.tile(np.arange(M // 2), 2)
        bits = np.repeat(np.array([0, 1], dtype=np.uint8), M // 2)
        for P in [P for P in range(1, M // 4 + 1) if (M // 4) % P == 0]:
            _, flip_table = selection_tables(m, P)
            ranks = _ranks(d, bits, m, flip_table)
            assert sorted(ranks.tolist()) == list(range(M))
            np.testing.assert_array_equal(ranks % (M // 2), d)
            np.testing.assert_array_equal(_matcher_bits(ranks, m, flip_table), bits)
        ranks = np.arange(M)
        symbols = 2 * ranks - (M - 1)
        np.testing.assert_array_equal(_split_symbols(symbols, m), ranks)
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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16).flatmap(
        lambda P: st.tuples(st.just(P), st.lists(st.integers(0, P - 1), min_size=1, max_size=300))
    ))
    def test_supply_equal_to_demand_serves_every_request_its_own(self, case):
        # what lets ideal sources skip the switch
        P, requests = case
        requests = np.array(requests, dtype=np.int64)
        served, overflow = _serve_requests(requests, np.bincount(requests, minlength=P).tolist())
        np.testing.assert_array_equal(served, requests)
        assert overflow == 0

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

    @pytest.mark.parametrize("capacities", [[3, 3], [2, 4], [0, 6], [6, 0]])
    def test_two_source_rows_match_loop(self, capacities):
        # every row of 6 requests in one batch: rows with no overflow, rows
        # that overflow at slot 0 (an empty reservoir) and rows that ask
        # one source only are all among them
        rows = (np.arange(64)[:, None] >> np.arange(6)) & 1
        served, overflow = _serve_requests(rows, capacities)
        assert served.shape == rows.shape and overflow.shape == (64,)
        first = []
        for row, row_served, row_overflow in zip(rows, served, overflow):
            want, want_overflow = loop_serve_requests(row, capacities)
            np.testing.assert_array_equal(row_served, want)
            assert row_overflow == want_overflow
            first.append(int(np.argmax(row_served != row)) if row_overflow else None)
        assert None in first
        assert (0 in first) == (0 in capacities)

    @pytest.mark.parametrize("P", [2, 3, 4, 8])
    def test_batch_matches_rows(self, P):
        # a batch is served as its rows are one at a time, and as the loop
        rng = np.random.default_rng(P)
        n = 12 * P
        rows = rng.choice(P, size=(50, n), p=rng.dirichlet(np.ones(P)))
        supply = rng.multinomial(n, rng.dirichlet(np.ones(P))).tolist()
        served, overflow = _serve_requests(rows, supply)
        for row, row_served, row_overflow in zip(rows, served, overflow):
            one, one_overflow = _serve_requests(row, supply)
            want, want_overflow = loop_serve_requests(row, supply)
            np.testing.assert_array_equal(row_served, one)
            np.testing.assert_array_equal(row_served, want)
            assert row_overflow == one_overflow == want_overflow


def _index_rows(code, indices) -> np.ndarray:
    """The k info bits of each index, least significant first, one row each."""
    return np.array(
        [[(index >> j) & 1 for j in range(code.k)] for index in indices], dtype=np.uint8
    ).reshape(len(indices), code.k)


def _stream_rows(cfg, ranks, bits):
    """Symbols of a chunk's ranks, after checking its bits are theirs."""
    _, flip_table = selection_tables(cfg.profile.m, cfg.profile.num_distinct)
    np.testing.assert_array_equal(bits, _matcher_bits(ranks, cfg.profile.m, flip_table))
    assert bits.dtype == np.uint8
    return 2 * ranks - ((1 << cfg.profile.m) - 1)


class TestTableUnrank:
    """_unrank_rows gives the ones of enumdm.unrank's walk, from a table
    for codes of at most _TABLE_CAP = n (w + 1) entries, else by the walk."""

    @pytest.mark.parametrize("n, w", [
        (256, 31), (128, 63), (4096, 1), (8192, 0),
        (8191, 0), (127, 63), (90, 89),
        (2731, 2), (8193, 0), (4097, 1),
        (90, 0), (90, 1), (90, 90), (1, 0), (1, 1), (2, 1),
    ])
    def test_words_match_the_walk(self, monkeypatch, n, w):
        # at the cap, just under it, one entry over it (those take the
        # walk), and w in {0, 1, n - 1, n}
        code = dm_code(n, w)
        draw = random.Random(n * (n + 1) + w).getrandbits
        indices = [0, (1 << code.k) - 1] + [draw(code.k) for _ in range(6)]
        walks, walk = [], shaper.dm_encode
        monkeypatch.setattr(shaper, "dm_encode", lambda bits, c: walks.append(c) or walk(bits, c))
        positions = _unrank_rows(code, _index_rows(code, indices))
        assert len(walks) == (len(indices) if n * (w + 1) > _TABLE_CAP else 0)
        assert positions.shape == (len(indices), w) and positions.dtype.kind == "i"
        for index, row in zip(indices, positions):
            np.testing.assert_array_equal(row, np.flatnonzero(unrank(index, code)))

    @pytest.mark.parametrize("n, w, k", [
        (8, 0, 0), (128, 5, 27), (66, 33, 62), (67, 33, 63), (128, 31, 98), (140, 56, 132),
        (186, 43, 141),
    ])
    def test_random_rows_match_the_walk(self, monkeypatch, n, w, k):
        # k = 62 and 63 on either side of int64, 98 the p = 0.24 matcher of
        # n = 256 at m = 5, 132 and 141 (the most under the cap) above 2^128
        code = dm_code(n, w)
        assert code.k == k
        draw = random.Random(k).getrandbits
        self._check_rows(monkeypatch, code, [0, (1 << k) - 1] + [draw(k) for _ in range(300)], 0)

    @pytest.mark.parametrize("n, w, k", [(66, 33, 62), (67, 33, 63), (128, 5, 27)])
    def test_int64_boundary(self, monkeypatch, n, w, k):
        # C(66, 33) = 7.2e18 < 2^63 searches int64 columns only; C(67, 33) =
        # 1.4e19 takes its first step on two words, as its remainder may reach
        # 2^63, and the rest on int64; (128, 5) is the p = 0.04 matcher of
        # n = 256 at m = 5
        code = dm_code(n, w)
        assert code.k == k
        self._check_steps(monkeypatch, code, 1 if k == 63 else 0)

    @pytest.mark.parametrize("n, w, steps", [
        (66, 31, 0), (67, 31, 1), (68, 31, 2), (69, 31, 4), (127, 31, 17), (128, 31, 17),
        (68, 40, 1), (69, 40, 13), (127, 14, 0), (127, 15, 1), (128, 58, 44),
        (80, 58, 37), (80, 59, 1), (80, 60, 0), (100, 80, 63),
    ])
    def test_row_steps_where_their_count_changes(self, monkeypatch, n, w, steps):
        # a leading step, whose remainder may reach 2^63, takes two words: below
        # 2^k at the first and below C(n - 1, r) too after it; w > n / 2 in the
        # last four, where C(n - 1, r) grows as r falls from w
        self._check_steps(monkeypatch, dm_code(n, w), steps)

    def _check_steps(self, monkeypatch, code, steps):
        """Words of code equal the walk's, none walked, with steps two-word steps."""
        assert len(_binomial_columns(code)[1]) == steps
        draw = random.Random(code.n).getrandbits
        indices = [0, (1 << code.k) - 1] + [draw(code.k) for _ in range(30)]
        self._check_rows(monkeypatch, code, indices, 0)

    @pytest.mark.parametrize("n, w", [
        (67, 33), (128, 31), (128, 63), (100, 80), (186, 43), (256, 31),
    ])
    def test_near_ties_match_the_walk(self, monkeypatch, n, w):
        # partial sums of a word's binomials, and one either side: the float
        # guide may pick a wrong t there, and the certificate sends the row to the walk
        code = dm_code(n, w)
        rnd = random.Random(n * w)
        indices = []
        for _ in range(100):
            ts = sorted(rnd.sample(range(n), w), reverse=True)[: rnd.randrange(w + 1)]
            total = sum(math.comb(t, w - j) for j, t in enumerate(ts))
            indices += [i for i in (total - 1, total, total + 1) if 0 <= i < 1 << code.k]
        assert 0 < len(self._check_rows(monkeypatch, code, indices, None)) < len(indices) / 2

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    @pytest.mark.parametrize("n, w", [(67, 33), (128, 31), (186, 43)])
    def test_misguided_rows_take_the_walk(self, monkeypatch, n, w, scale):
        # a guide off by a factor of 2 picks wrong ts on the two-word steps;
        # every row it misleads fails the certificate and is walked
        columns = shaper._binomial_columns
        monkeypatch.setattr(shaper, "_binomial_columns",
                            lambda c: (columns(c)[0], columns(c)[1] * scale, *columns(c)[2:]))
        code = dm_code(n, w)
        draw = random.Random(n).getrandbits
        walks = self._check_rows(monkeypatch, code, [draw(code.k) for _ in range(40)], None)
        assert len(walks) >= 30

    @staticmethod
    def _check_rows(monkeypatch, code, indices, walked):
        """Words of code equal the walk's, with walked (if not None) rows sent to
        dm_encode; returns the codes of the dm_encode calls."""
        walks, walk = [], shaper.dm_encode
        monkeypatch.setattr(shaper, "dm_encode", lambda bits, c: walks.append(c) or walk(bits, c))
        positions = _unrank_rows(code, _index_rows(code, indices))
        assert walked is None or len(walks) == walked
        assert positions.shape == (len(indices), code.w)
        for index, row in zip(indices, positions):
            np.testing.assert_array_equal(row, np.flatnonzero(unrank(index, code)))
        return walks

    def test_row_steps_and_walks_in_one_chunk(self, monkeypatch):
        # at n / P = 128, p = 0.04 (w = 5) searches int64 columns only, p = 0.24
        # and 0.45 (w = 31, 58) take their first 17 and 44 steps on two words,
        # and p = 0.5 (w = 64) is over the cap and walks every word
        cfg = config(m=4, probs=(0.04, 0.24, 0.5, 0.45), n=512)
        assert [c.w for c in cfg.dm_codes] == [5, 31, 64, 58]
        assert [len(_binomial_columns(c)[1]) for c in cfg.dm_codes if c.w != 64] == [0, 17, 44]
        walks, walk = [], shaper.dm_encode
        monkeypatch.setattr(shaper, "dm_encode", lambda bits, c: walks.append(c) or walk(bits, c))
        ((ranks, bits, overflow),) = _block_chunks(cfg, 8, 6)
        assert walks == [cfg.dm_codes[2]] * 6
        monkeypatch.undo()
        symbols = _stream_rows(cfg, ranks, bits)
        rng, info = np.random.default_rng(8), _uniform_info(np.random.default_rng(8), cfg, 6)
        for row, row_symbols, row_overflow in zip(info, symbols, overflow):
            block = encode_block_dm(cfg, row)
            want, want_overflow = next_block(cfg, rng)
            assert row_symbols.tobytes() == block.symbols.tobytes() == want.tobytes()
            assert row_overflow == block.overflow_count == want_overflow

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_codes_match_the_walk(self, data):
        n = data.draw(st.integers(1, 600), label="n")
        code = dm_code(n, data.draw(st.integers(0, n), label="w"))
        indices = data.draw(st.lists(st.integers(0, (1 << code.k) - 1), min_size=1, max_size=5))
        positions = _unrank_rows(code, _index_rows(code, indices))
        for index, row in zip(indices, positions):
            np.testing.assert_array_equal(row, np.flatnonzero(unrank(index, code)))


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

    @pytest.mark.parametrize("m, probs, n", [(4, (0.1, 0.3), 66), (2, (0.2,), 130)])
    def test_rows_are_one_row_draws_in_turn(self, m, probs, n):
        # n (m - 1) is not a multiple of 64, so each row's last prefix word
        # is only partly read and the next row must start on a fresh word
        cfg = config(m=m, probs=probs, n=n, mode="ideal-sources")
        ((ranks, bits, overflow),) = _block_chunks(cfg, np.random.SeedSequence(3), 3)
        rng = np.random.default_rng(3)
        expected = [mask_ideal_row(cfg, rng) for _ in range(3)]
        assert _stream_rows(cfg, ranks, bits).tobytes() == np.stack(expected).tobytes()
        assert overflow.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("mode", ["block-dm", "ideal-sources"])
    def test_stream_is_one_block_draws_in_turn(self, mode):
        # n = 130 does not divide 16384: 126 blocks fill a chunk and 133 blocks
        # end on a partial one
        cfg = config(m=3, probs=(0.1, 0.4), n=130, mode=mode)
        chunks = list(_block_chunks(cfg, np.random.SeedSequence(11), 133))
        assert [len(ranks) for ranks, _, _ in chunks] == [126, 7]
        rng = np.random.default_rng(11)
        expected = [next_block(cfg, rng) for _ in range(133)]
        symbols = np.concatenate([_stream_rows(cfg, ranks, bits) for ranks, bits, _ in chunks])
        overflow = np.concatenate([o for _, _, o in chunks])
        assert symbols.tobytes() == np.stack([s for s, _ in expected]).tobytes()
        assert overflow.tolist() == [o for _, o in expected]

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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_match_single_blocks(self, data):
        # the stream's chunk of B blocks encodes each row as encode_block_dm
        # does, overflow counts included; P > 2 throughout
        m = data.draw(st.integers(4, 8), label="m")
        P = 1 << data.draw(st.integers(2, m - 2), label="log2(P)")
        density = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        probs = data.draw(st.tuples(*[density] * P), label="probs")
        n = P * data.draw(st.integers(1, max(1, 512 // P)), label="n / P")
        rows = data.draw(st.integers(1, 5), label="B")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cfg = ShaperConfig(profile=ShapingProfile(m=m, probs=probs), n=n)
        info = _uniform_info(np.random.default_rng(seed), cfg, rows)
        ((ranks, bits, overflow),) = _block_chunks(cfg, seed, rows)
        assert ranks.shape == (rows, n) and overflow.shape == (rows,)
        symbols = _stream_rows(cfg, ranks, bits)
        for row, row_symbols, row_overflow in zip(info, symbols, overflow):
            block = encode_block_dm(cfg, row)
            np.testing.assert_array_equal(row_symbols, block.symbols)
            assert row_overflow == block.overflow_count

    def test_rows_served_unevenly_raise(self, monkeypatch):
        # a switch whose counts balance over the chunk but not in each row
        cfg = config(m=3, probs=(0.04, 0.24), n=8)
        uneven = np.array([[0] * 6 + [1] * 2, [0] * 2 + [1] * 6])
        monkeypatch.setattr(shaper, "_serve_requests", lambda requests, supply: (uneven, [0, 0]))
        ones = [np.zeros((2, c.w), int) for c in cfg.dm_codes]
        with pytest.raises(IntegrityError, match="reservoir 0 served other than its 4 bits"):
            _encode_dm_rows(cfg, np.zeros((2, 16), np.uint8), ones)

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

    @pytest.mark.parametrize("mode, encode", [
        ("ideal-sources", lambda cfg: encode_block_dm(cfg, np.zeros(8, dtype=np.uint8))),
        ("block-dm", encode_block_ideal),
    ], ids=["dm-on-ideal", "ideal-on-dm"])
    def test_mode_mismatch_on_encode(self, mode, encode):
        with pytest.raises(ParameterError, match="mode"):
            encode(config(mode=mode))

    def test_wrong_symbol_count_on_decode(self):
        cfg = config()
        block = encode_block_dm(cfg, np.zeros(cfg.info_length, dtype=np.uint8))
        with pytest.raises(ParameterError, match="symbols"):
            decode_block(ShapedBlock(block.symbols[:-1], block.overflow_count), cfg)

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
        bad = ShapedBlock(symbols=symbols, overflow_count=block.overflow_count)
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
        bent = ShapedBlock(symbols=symbols, overflow_count=block.overflow_count)
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
                    decoded = decode_block(ShapedBlock(bent, 0), cfg)
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
        bad = ShapedBlock(symbols=symbols, overflow_count=block.overflow_count)
        with pytest.raises(IntegrityError):
            decode_block(bad, cfg)

    @pytest.mark.parametrize("dtype", [float, bool, np.uint64])
    def test_block_of_non_integers_refused(self, dtype):
        # a float block whose positive symbols gained 0.5 was once stored
        # truncated, and decode_block returned the info with no alarm
        cfg = config(m=3, probs=(0.04, 0.24), n=8)
        info = np.random.default_rng(3).integers(0, 2, cfg.info_length, dtype=np.uint8)
        symbols = encode_block_dm(cfg, info).symbols
        bent = symbols.astype(dtype)
        if dtype is float:
            assert (symbols > 0).any()
            bent[symbols > 0] += 0.5
        with pytest.raises(IntegrityError, match="not integers"):
            ShapedBlock(bent, 0)
        # narrower signed integers are read as int64
        assert ShapedBlock(symbols.astype(np.int8), 0).symbols.dtype == np.int64

    def test_block_keeps_its_own_symbols(self):
        # the block used to freeze and keep the caller's int64 array itself
        a = np.array([1, -1, 3, -3])
        b = ShapedBlock(a, 0)
        assert b.symbols is not a
        a[0] = 5
        assert b.symbols.tolist() == [1, -1, 3, -3]
        assert not b.symbols.flags.writeable


class TestUniformInfo:
    """A chunk's info bits: one raw draw, row by row as one-row draws."""

    # _uniform_info reads only config.info_length
    @settings(max_examples=60, deadline=None)
    @given(
        words=st.integers(0, 40),
        tail=st.one_of(st.sampled_from([0, 1, 63]), st.integers(2, 62)),
        count=st.integers(1, 9),
        seed=st.integers(0, 2**63),
    )
    def test_chunk_is_one_row_draws(self, words, tail, count, seed):
        L = 64 * words + tail
        config = SimpleNamespace(info_length=L)
        chunk = _uniform_info(np.random.default_rng(seed), config, count)
        assert chunk.shape == (count, L) and chunk.dtype == np.uint8
        assert ((chunk == 0) | (chunk == 1)).all()
        rng = np.random.default_rng(seed)
        rows = [_uniform_info(rng, config, 1)[0] for _ in range(count)]
        np.testing.assert_array_equal(chunk, np.reshape(rows, (count, L)))

    def test_bits_are_the_raw_words_least_significant_first(self):
        config = ShaperConfig(profile=ShapingProfile(m=3, probs=(0.1, 0.4)), n=64)
        L = config.info_length
        chunk = _uniform_info(np.random.default_rng(5), config, 3)
        raw = np.random.default_rng(5).bit_generator.random_raw(3 * -(-L // 64))
        per_row = len(raw) // 3
        for b in range(3):
            words = [int(w) for w in raw[b * per_row : (b + 1) * per_row]]
            bits = [(w >> j) & 1 for w in words for j in range(64)][:L]
            assert chunk[b].tolist() == bits


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

    def test_length_cap(self):
        # the running product takes O(n) memory; 2^20 is the range the
        # docstring vouches for
        n = 1 << 20
        assert switch_excess_expectation(n) == pytest.approx(
            math.sqrt(n / (8.0 * math.pi)), rel=1e-6
        )
        prof = ShapingProfile(m=5, probs=(0.04, 0.24))
        for call in (
            lambda: switch_excess_expectation(n + 2),
            lambda: effective_probabilities(0.04, 0.24, n + 2),
            lambda: switch_energy_loss(prof, 2 * n),
        ):
            with pytest.raises(ParameterError, match="1048576"):
                call()


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

    @pytest.mark.parametrize("p1, p2", [(-0.1, 0.24), (0.04, 1.5)])
    def test_rejects_probability_outside_unit_interval(self, p1, p2):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            effective_probabilities(p1, p2, 256)


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
        assert main(["shape", "analyze-switch", "--m", "5", "--probs", "0.04", "0.24",
                     "--n", "1024", "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "switch-analysis.json").read_text(encoding="utf-8")
        (analysis,) = json.loads(text)
        assert analysis["n"] == 1024
        assert analysis["epsilon"] == pytest.approx(switch_excess_expectation(1024))
        assert analysis["delta_db"] == pytest.approx(switch_energy_loss(prof, 1024))
        assert (analysis["p1_eff"], analysis["p2_eff"]) == pytest.approx(
            effective_probabilities(0.04, 0.24, 1024)
        )


class TestEmpiricalFrequencies:
    @pytest.mark.parametrize("m, probs, n, blocks", [
        (3, (0.2,), 256, 37),
        (5, (0.04, 0.24), 256, 37),
        (5, (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0), 256, 37),
        (3, (0.05, 0.2), 16400, 3),
        (3, (0.01, 0.025), 1024, 2 * (_DRAW_SYMBOLS // 1024) + _CHUNK_SYMBOLS // 1024 + 5),
    ], ids=["P1", "P2", "P8", "P2-one-block-chunks", "P2-two-draws"])
    def test_matches_block_loop(self, m, probs, n, blocks):
        # 37 blocks of 256 symbols end on a partial chunk; n = 16400 puts one
        # block in each chunk; at n = 1024 two whole draws, a whole chunk and
        # a partial one, each draw unranked at once and sliced into its chunks
        assert blocks % max(1, _CHUNK_SYMBOLS // n) or _CHUNK_SYMBOLS < n
        cfg = config(m=m, probs=probs, n=n)
        for seed in (0, 9301):
            freqs, counts = empirical_source_frequencies(cfg, blocks, seed)
            ref_freqs, ref_counts = loop_source_frequencies(cfg, blocks, seed)
            assert freqs.tolist() == ref_freqs.tolist()
            assert counts.tolist() == ref_counts.tolist()

    @pytest.mark.parametrize("blocks", [0, -3])
    def test_num_blocks_below_one_rejected(self, blocks):
        # both used to return zero frequencies and counts
        with pytest.raises(ParameterError, match="num_blocks"):
            empirical_source_frequencies(config(), blocks)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            empirical_source_frequencies(config(), 1, seed=-1)

    @pytest.mark.parametrize("probs", [(0.04, 0.24), (0.0, 0.05, 0.3, 1.0)])
    def test_ideal_matches_block_loop(self, probs):
        cfg = config(m=4, probs=probs, n=256, mode="ideal-sources")
        freqs, counts = empirical_source_frequencies(cfg, 37, 9301)
        ref_freqs, ref_counts = loop_source_frequencies(cfg, 37, 9301)
        assert freqs.tolist() == ref_freqs.tolist()
        assert counts.tolist() == ref_counts.tolist()

    def test_ideal_sources_give_the_nominal_densities(self):
        # no switch, so each source serves its own p_i
        cfg = config(m=5, probs=(0.04, 0.24), n=2048, mode="ideal-sources")
        freqs, counts = empirical_source_frequencies(cfg, num_blocks=100, seed=1)
        for i, p in enumerate(cfg.profile.probs):
            sd = math.sqrt(p * (1 - p) / counts[i])
            assert abs(freqs[i] - p) <= 3.0 * sd, i

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
        text = _block_to_json(block, cfg)
        block2, cfg2 = _block_from_json(text)
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
            # each of these was coerced, and the block decoded: n 64.7 as 64,
            # m 3.9 as 3, P 2.5 as 2, seed 8.5 as 8, true as 1
            lambda doc: doc["header"].update(n=64.7),
            lambda doc: doc["header"].update(m=3.9),
            lambda doc: doc["header"].update(P=2.5),
            lambda doc: doc["header"].update(seed=8.5),
            lambda doc: doc["header"].update(seed=True),
            lambda doc: doc.update(overflow_count=2.9),
            lambda doc: doc.update(overflow_count=-4),
            lambda doc: doc.update(overflow_count=True),
            lambda doc: doc["header"].update(probs=[True, 0.24]),
            lambda doc: doc["header"].update(probs="01"),  # read as (0.0, 1.0)
            # a negative seed, which ShaperConfig refuses
            lambda doc: doc["header"].update(seed=-3),
        ],
    )
    def test_bad_header_is_parameter_error(self, change):
        cfg = config(m=3, probs=(0.04, 0.24), n=64, seed=8)
        block = encode_block_dm(cfg, np.zeros(cfg.info_length, dtype=np.uint8))
        doc = json.loads(_block_to_json(block, cfg))
        change(doc)
        with pytest.raises(ParameterError):
            _block_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, value, message", [
        ("P", 3, "header P"),
        ("n", 63, "n must be even"),  # ShaperConfig's own error, passed on as it is
    ])
    def test_header_checks_keep_their_message(self, field, value, message):
        cfg = config(m=3, probs=(0.04, 0.24), n=64, seed=8)
        block = encode_block_dm(cfg, np.zeros(cfg.info_length, dtype=np.uint8))
        doc = json.loads(_block_to_json(block, cfg))
        doc["header"][field] = value
        with pytest.raises(ParameterError, match=message):
            _block_from_json(json.dumps(doc))

    def test_invalid_json_is_parameter_error(self):
        with pytest.raises(ParameterError):
            _block_from_json("{not json")

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
        doc = json.loads(_block_to_json(block, cfg))
        change(doc["symbols"])
        with pytest.raises(IntegrityError):
            _block_from_json(json.dumps(doc))

    def test_tampered_payload_rejected(self):
        cfg = config(m=3, probs=(0.04, 0.24), n=256, seed=8)
        block = encode_block_dm(cfg, np.zeros(cfg.info_length, dtype=np.uint8))
        text = _block_to_json(block, cfg)
        corrupted = text.replace("-7", "-9", 1)
        if corrupted != text:
            with pytest.raises(IntegrityError):
                _block_from_json(corrupted)
