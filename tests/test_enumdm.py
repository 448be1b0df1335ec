"""Enumerative fixed-weight matcher tests."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signshape import (
    OutOfCodebookError,
    ParameterError,
    RangeError,
    WeightError,
    binary_entropy,
    dm_code,
    dm_complexity_bound,
    dm_decode,
    dm_encode,
    dm_pair_complexity_bound,
    rank,
    rate_loss,
    unrank,
    unrank_counted,
    weight_for,
)

from signshape import enumdm
from signshape.enumdm import MAX_MATCHER_LENGTH

from helpers import (
    comb_greedy_unrank,
    pascal_binomial,
    pascal_unrank_counted,
    words_in_rank_order,
)


class TestBinomial:
    """A matcher's codebook size C(n, w), exact for every length."""

    def test_small_values(self):
        assert dm_code(1, 0).num_words == 1
        assert dm_code(5, 2).num_words == 10
        assert dm_code(8, 3).num_words == 56

    def test_outside_support(self):
        # no word of length 5 has weight 6 or -1
        for w in (6, -1):
            with pytest.raises(ParameterError):
                dm_code(5, w)

    def test_negative_n_rejected(self):
        with pytest.raises(ParameterError):
            dm_code(-1, 0)

    def test_against_pascal_oracle(self):
        assert dm_code(2048, 82).num_words == pascal_binomial(2048, 82)

    @given(st.integers(1, 60), st.integers(0, 60))
    def test_matches_oracle(self, n, k):
        assert dm_code(n, min(k, n)).num_words == pascal_binomial(n, min(k, n))


class TestWeightFor:
    def test_rounds_half_up(self):
        # 10 * 0.05 = 0.5 exactly: must go up, not to even
        assert weight_for(10, 0.05) == 1
        assert weight_for(30, 0.05) == 2

    def test_examples(self):
        assert weight_for(1024, 0.04) == 41
        assert weight_for(2048, 0.24) == 492


class TestDmCode:
    def test_sizes(self):
        code = dm_code(8, 3)
        assert code.num_words == 56
        assert code.k == 5

    def test_k_is_floor_log2(self):
        code = dm_code(12, 4)
        assert 2**code.k <= code.num_words < 2 ** (code.k + 1)

    def test_zero_weight(self):
        code = dm_code(6, 0)
        assert code.num_words == 1
        assert code.k == 0

    def test_invalid(self):
        with pytest.raises(ParameterError):
            dm_code(0, 0)
        with pytest.raises(ParameterError):
            dm_code(8, 9)

    def test_length_limit(self):
        assert dm_code(MAX_MATCHER_LENGTH, 1).num_words == MAX_MATCHER_LENGTH
        with pytest.raises(ParameterError):
            dm_code(MAX_MATCHER_LENGTH + 1, 1)

    def test_log_factorial_error_within_tie_margin(self):
        # a probe adds up three ln t! values and one ln remainder; keep a
        # tenfold margin over that sum
        for t in (0, 1, 2, 100, 4095, 30000, MAX_MATCHER_LENGTH):
            error = abs(math.lgamma(t + 1) - math.log(math.factorial(t)))
            assert 4 * error < enumdm._TIE / 10


class TestRankUnrank:
    def test_first_word_is_trailing_ones(self):
        code = dm_code(8, 3)
        np.testing.assert_array_equal(unrank(0, code), [0, 0, 0, 0, 0, 1, 1, 1])

    def test_last_word_is_leading_ones(self):
        code = dm_code(8, 3)
        last = code.num_words - 1
        np.testing.assert_array_equal(unrank(last, code), [1, 1, 1, 0, 0, 0, 0, 0])

    def test_examples_n4_w2(self):
        code = dm_code(4, 2)
        assert rank(np.array([0, 0, 1, 1]), code) == 0
        assert rank(np.array([1, 1, 0, 0]), code) == 5

    def test_out_of_range_index(self):
        code = dm_code(4, 2)
        with pytest.raises(RangeError):
            unrank(6, code)
        with pytest.raises(RangeError):
            unrank(-1, code)

    def test_wrong_weight_rejected(self):
        code = dm_code(4, 2)
        with pytest.raises(WeightError):
            rank(np.array([1, 1, 1, 0]), code)

    def test_wrong_length_rejected(self):
        code = dm_code(4, 2)
        with pytest.raises(ParameterError):
            rank(np.array([1, 1, 0]), code)

    def test_non_binary_rejected(self):
        code = dm_code(4, 2)
        with pytest.raises(ParameterError):
            rank(np.array([2, 0, 0, 0]), code)

    @pytest.mark.parametrize("n,w", [(6, 2), (9, 4), (10, 5), (12, 3)])
    def test_exhaustive_roundtrip(self, n, w):
        code = dm_code(n, w)
        seen = set()
        for index in range(code.num_words):
            word = unrank(index, code)
            assert word.sum() == w
            assert rank(word, code) == index
            seen.add(tuple(word))
        assert len(seen) == code.num_words

    @pytest.mark.parametrize("n,w", [(6, 3), (8, 2), (10, 4)])
    def test_order_matches_oracle(self, n, w):
        code = dm_code(n, w)
        expected = words_in_rank_order(n, w)
        for index, word in enumerate(expected):
            np.testing.assert_array_equal(unrank(index, code), word)

    def test_comparisons_counted(self):
        code = dm_code(64, 8)
        word, comparisons = unrank_counted(1234, code)
        assert word.sum() == 8
        assert comparisons > 0
        # a sparse word's walks take about one probe per one, well inside
        # the w * ceil(log2(n)) a binary search per one could take
        assert comparisons <= 8 * 7

    def test_random_roundtrip_long_dense(self):
        # k >= 2048 and w >= n/5: rank batches runs of ones
        code = dm_code(3000, 1500)
        rng = random.Random(7)
        for index in [0, code.num_words - 1] + [rng.randrange(code.num_words) for _ in range(20)]:
            assert rank(unrank(index, code), code) == index

    @settings(max_examples=50)
    @given(st.data())
    def test_random_roundtrip_large(self, data):
        code = dm_code(256, 31)
        index = data.draw(st.integers(0, int(code.num_words) - 1))
        assert rank(unrank(index, code), code) == index


def assert_matches_references(index, code):
    word, comparisons = unrank_counted(index, code)
    ref_word, ref_comparisons = pascal_unrank_counted(index, code.n, code.w)
    np.testing.assert_array_equal(word, ref_word)
    assert comparisons == ref_comparisons
    np.testing.assert_array_equal(word, comb_greedy_unrank(index, code.n, code.w))
    assert rank(word, code) == index


class TestAgainstReferences:
    @pytest.mark.parametrize("n,w", [(1024, 41), (2048, 492), (256, 31)])
    def test_random_and_extreme_indices(self, n, w):
        code = dm_code(n, w)
        rng = random.Random(n * w)
        indices = [0, (1 << code.k) - 1, code.num_words - 1]
        indices += [rng.randrange(code.num_words) for _ in range(8)]
        for index in indices:
            assert_matches_references(index, code)

    def test_exact_ties(self):
        # index C(t, w) makes the probe at t an exact tie, and C(t, w) - 1
        # leaves every later walk one below a binomial; the codes take dense
        # walks, sparse walks from the closed-form start, and both in turn
        # (upper = 8 w at the crossover code)
        for n, w, ts in [
            (4096, 983, (984, 2500, 4095)),
            (4096, 164, (165, 400, 1312, 4095)),
            (128, 5, (6, 20, 40, 127)),
            (1024, 128, (129, 300, 1023)),
        ]:
            code = dm_code(n, w)
            indices = [0, (1 << code.k) - 1, code.num_words - 1]
            for t in ts:
                indices += [math.comb(t, w), math.comb(t, w) - 1]
            for index in indices:
                assert_matches_references(index, code)

    @pytest.mark.parametrize("p", [0.06, 0.12])
    def test_longest_matcher_walks_beat_bisection(self, p):
        code = dm_code(MAX_MATCHER_LENGTH, weight_for(MAX_MATCHER_LENGTH, p))
        rng = random.Random(17)
        for index in [(1 << code.k) - 1, code.num_words - 1, rng.randrange(code.num_words)]:
            word, comparisons = unrank_counted(index, code)
            assert rank(word, code) == index
            assert comparisons / code.w <= math.ceil(math.log2(code.n)) + 2


class TestMemory:
    def test_n16384_block_roundtrip_stays_small(self):
        # two length-8192 matchers; a Pascal table per matcher needed > 5 GB,
        # so the child's heap is capped to fail fast rather than exhaust memory
        child = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_DATA, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from signshape import ShapingProfile, ShaperConfig, encode_block_dm, decode_block\n"
            "cfg = ShaperConfig(profile=ShapingProfile(m=5, probs=(0.04, 0.24)), n=16384)\n"
            "info = np.random.default_rng(0).integers(0, 2, cfg.info_length, dtype=np.uint8)\n"
            "block = encode_block_dm(cfg, info)\n"
            "assert np.array_equal(decode_block(block, cfg), info)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(enumdm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        result = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        peak_mb = int(result.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB
        assert peak_mb < 250


class TestEncodeDecode:
    def test_roundtrip_n64(self):
        code = dm_code(64, 8)
        rng = np.random.default_rng(11)
        for _ in range(50):
            info = rng.integers(0, 2, size=code.k, dtype=np.uint8)
            word = dm_encode(info, code)
            assert word.sum() == code.w
            np.testing.assert_array_equal(dm_decode(word, code), info)

    def test_out_of_codebook(self):
        # C(4,2)=6 with k=2: ranks 4 and 5 decode to values needing 3 bits
        code = dm_code(4, 2)
        bad = unrank(5, code)
        with pytest.raises(OutOfCodebookError):
            dm_decode(bad, code)

    def test_all_codebook_words_decode(self):
        code = dm_code(16, 4)
        for value in range(2**code.k):
            info = np.array([(value >> i) & 1 for i in range(code.k)], dtype=np.uint8)
            word = dm_encode(info, code)
            np.testing.assert_array_equal(dm_decode(word, code), info)

    def test_wrong_info_length(self):
        code = dm_code(8, 3)
        with pytest.raises(ParameterError):
            dm_encode(np.zeros(code.k + 1, dtype=np.uint8), code)


class TestRates:
    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_rate_loss_positive_and_shrinking(self):
        losses = [rate_loss(n, 0.14) for n in (400, 800, 1600, 3200)]
        assert all(l > 0 for l in losses)
        assert losses == sorted(losses, reverse=True)

    def test_rate_loss_value(self):
        # k = floor(log2 C(1000, 140)) = 579
        expected = binary_entropy(0.14) - 579 / 1000
        assert rate_loss(1000, 0.14) == pytest.approx(expected, abs=1e-12)

    def test_rate_loss_rejects_degenerate(self):
        with pytest.raises(ParameterError):
            rate_loss(10, 0.001)

    def test_complexity_bounds(self):
        assert dm_complexity_bound(1024, 0.04) == 1.0
        assert dm_complexity_bound(1024, 0.0) == 0.0
        assert dm_pair_complexity_bound(2048, 0.04, 0.24) == 1.0
        assert dm_pair_complexity_bound(2048, 0.0, 0.24) == 0.5

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_probes_within_bound_for_any_word(self, data):
        n = data.draw(st.integers(1, 4096), label="n")
        w = data.draw(st.integers(0, n), label="w")
        code = dm_code(n, w)
        top = code.num_words - 1
        index = data.draw(
            st.sampled_from([0, (1 << code.k) - 1, top]) | st.integers(0, top), label="index"
        )
        word, comparisons = unrank_counted(index, code)
        assert rank(word, code) == index
        assert comparisons <= dm_complexity_bound(n, w / n) * n

    def test_measured_comparisons_within_bound(self):
        # bound uses the realized weight ratio, not the requested p
        code = dm_code(1024, weight_for(1024, 0.04))
        realized = code.w / code.n
        bound = realized * np.log2(code.n)
        rng = np.random.default_rng(3)
        total = 0
        trials = 1000
        for _ in range(trials):
            index = int(rng.integers(0, 1 << 62)) % int(code.num_words)
            _, comparisons = unrank_counted(index, code)
            total += comparisons
        assert total / (trials * code.n) <= bound
