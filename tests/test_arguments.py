"""One integer rule and one probability rule at every entry point.

Integer arguments (sizes, counts, seeds, indices, the quadrature order) take
Python and numpy integers alike and refuse bool; probabilities lie in [0, 1].
Anything else raises ParameterError.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from signshape import (
    ParameterError,
    ShaperConfig,
    ShapingProfile,
    SimConfig,
    awgn_mi,
    build_ask,
    dm_code,
    dm_complexity_bound,
    effective_probabilities,
    empirical_source_frequencies,
    encode_block_ideal,
    loss_budget,
    mi_curve_optimized,
    optimize_profile,
    rate_loss,
    selection_tables,
    switch_excess_expectation,
    unrank,
    unrank_counted,
    weight_for,
)
from signshape import simulate
from signshape.cli import _block_from_json, _block_to_json
from signshape.midist import _warm_sweep

PROFILE = ShapingProfile(m=5, probs=(0.04, 0.24))
CONFIG = ShaperConfig(PROFILE, n=64)


def shaper_config(**fields):
    """A config with these fields, its matchers and its ideal-sources block 0."""
    config = ShaperConfig(PROFILE, **{"n": 64, **fields})
    ideal = dataclasses.replace(config, mode="ideal-sources")
    return config, config.dm_codes, encode_block_ideal(ideal).symbols


def simulation(**fields):
    config = SimConfig(CONFIG, **{"noise_std": 1.0, "num_blocks": 2, **fields})
    return config, simulate.run(config)


def block_file(key, value):
    """Read back a block file whose header field key (or overflow_count) holds value."""
    config = dataclasses.replace(CONFIG, mode="ideal-sources")
    doc = json.loads(_block_to_json(encode_block_ideal(config), config))
    (doc if key == "overflow_count" else doc["header"])[key] = value
    # JSON holds no numpy scalars: one is written as the Python value it equals
    return _block_from_json(json.dumps(doc, default=lambda scalar: scalar.item()))


# (call taking the argument, a value it accepts), one row per argument
INTEGER_ARGUMENTS = [
    pytest.param(build_ask, 5, id="build_ask-m"),
    pytest.param(lambda m: ShapingProfile(m=m, probs=(0.04, 0.24)), 5, id="ShapingProfile-m"),
    pytest.param(lambda n: weight_for(n, 0.1), 128, id="weight_for-n"),
    pytest.param(lambda n: dm_code(n, 5), 128, id="dm_code-n"),
    pytest.param(lambda w: dm_code(128, w), 5, id="dm_code-w"),
    pytest.param(lambda index: unrank_counted(index, dm_code(8, 3)), 3, id="unrank_counted-index"),
    pytest.param(lambda n: dm_complexity_bound(n, 0.1), 128, id="dm_complexity_bound-n"),
    pytest.param(lambda order: awgn_mi([-1.0, 1.0], [0.5, 0.5], 1.0, order), 16,
                 id="awgn_mi-order"),
    pytest.param(lambda P: optimize_profile(4, P, snr_db=10.0), 2,
                 id="optimize_profile-num_distinct"),
    pytest.param(lambda P: list(_warm_sweep(4, P, "snr_db", [9.0, 10.0])), 2,
                 id="_warm_sweep-num_distinct"),
    pytest.param(lambda m: selection_tables(m, 2), 5, id="selection_tables-m"),
    pytest.param(lambda P: selection_tables(5, P), 2, id="selection_tables-num_distinct"),
    pytest.param(lambda n: shaper_config(n=n), 64, id="ShaperConfig-n"),
    pytest.param(lambda seed: shaper_config(rng_seed=seed), 3, id="ShaperConfig-rng_seed"),
    pytest.param(switch_excess_expectation, 256, id="switch_excess_expectation-n"),
    pytest.param(lambda count: empirical_source_frequencies(CONFIG, count), 2,
                 id="empirical_source_frequencies-num_blocks"),
    pytest.param(lambda seed: empirical_source_frequencies(CONFIG, 2, seed=seed), 3,
                 id="empirical_source_frequencies-seed"),
    pytest.param(lambda count: simulation(num_blocks=count), 2, id="SimConfig-num_blocks"),
    pytest.param(lambda seed: simulation(rng_seed=seed), 3, id="SimConfig-rng_seed"),
    pytest.param(lambda n: loss_budget(5, 0.04, 0.24, n, 16.0), 256, id="loss_budget-n"),
    *[pytest.param(lambda value, key=key: block_file(key, value), value, id=f"block-file-{key}")
      for key, value in [("m", 5), ("P", 2), ("n", 64), ("seed", 0), ("overflow_count", 0)]],
]

NO_INTEGERS = {
    "fraction": lambda value: value + 0.5,
    "whole-float": float,
    "bool": lambda value: True,
    "numpy-bool": lambda value: np.True_,
    "string": str,
}


@pytest.mark.parametrize("form", NO_INTEGERS.values(), ids=NO_INTEGERS.keys())
@pytest.mark.parametrize("call, value", INTEGER_ARGUMENTS)
def test_refuses_what_is_no_integer(call, value, form):
    with pytest.raises(ParameterError, match="must be an integer"):
        call(form(value))


@pytest.mark.parametrize("call, value", INTEGER_ARGUMENTS)
def test_numpy_integer_acts_as_the_python_int(call, value):
    # repr shows a numpy integer kept where the Python int belongs
    assert repr(call(np.int64(value))) == repr(call(value))


@pytest.mark.parametrize("call", [
    # each crashed with TypeError or ZeroDivisionError after taking its arguments
    lambda: ShaperConfig(PROFILE, n=256.0).dm_codes,
    lambda: dm_code(128.0, 5),
    lambda: dm_code(128, 5.0),
    lambda: rate_loss(128.0, 0.1),
    lambda: loss_budget(5, 0.04, 0.24, 256.0, 16.0),
    lambda: mi_curve_optimized(5, 2.0, [14.0, 15.0]),
    lambda: simulate.run(SimConfig(CONFIG, 1.0, 2.5)),
    lambda: empirical_source_frequencies(CONFIG, 2.5),
    lambda: empirical_source_frequencies(CONFIG, 2, seed=1.5),
    lambda: encode_block_ideal(ShaperConfig(PROFILE, n=64, rng_seed=1.5, mode="ideal-sources")),
    lambda: simulate.run(SimConfig(CONFIG, 1.0, 2, rng_seed=1.5)),
    lambda: selection_tables(5, 0),
    # these took True as 1
    lambda: dm_code(True, True),
    lambda: SimConfig(CONFIG, 1.0, num_blocks=True),
], ids=["ShaperConfig-n-256.0", "dm_code-n-128.0", "dm_code-w-5.0", "rate_loss-n-128.0",
        "loss_budget-n-256.0", "mi_curve_optimized-P-2.0", "run-num_blocks-2.5",
        "frequencies-num_blocks-2.5", "frequencies-seed-1.5", "encode_block_ideal-seed-1.5",
        "run-seed-1.5", "selection_tables-P-0", "dm_code-True", "SimConfig-num_blocks-True"])
def test_refused_before_use(call):
    with pytest.raises(ParameterError):
        call()


def test_loss_budget_names_the_n_it_was_given():
    with pytest.raises(ParameterError, match=r"n must be an integer, got 256\.0"):
        loss_budget(5, 0.04, 0.24, 256.0, 16.0)


def test_unrank_takes_a_numpy_index():
    code = dm_code(8, 3)
    np.testing.assert_array_equal(unrank(np.int64(3), code), unrank(3, code))


@pytest.mark.parametrize("m, P, message", [
    (5, 3, "does not divide"),  # gave source indices 0-3 for three sources
    (5, 0, "num_distinct must be in"),  # ZeroDivisionError
    (5, 16, "num_distinct must be in"),  # divided by zero
    (1, 1, "m must be in"),  # divided by zero
])
def test_selection_tables_take_a_profiles_shape(m, P, message):
    with pytest.raises(ParameterError, match=message):
        selection_tables(m, P)


def test_huge_integers_are_named_by_size():
    # str() refuses integers of more than 4300 digits: each raised ValueError
    with pytest.raises(ParameterError, match="got a 16610-bit positive integer"):
        switch_excess_expectation(10**5000)
    with pytest.raises(ParameterError, match="got a 16610-bit negative integer"):
        dm_code(-10**5000, 1)
    with pytest.raises(ParameterError, match="got a 16610-bit positive integer"):
        ShapingProfile(m=5, probs=(0.04, 10**5000))
    code = dm_code(20000, 4800)
    with pytest.raises(ParameterError, match=r"index must be in \[0, a \d+-bit positive integer\]"):
        unrank_counted(code.num_words, code)


PROBABILITY_ARGUMENTS = [
    pytest.param(lambda p: weight_for(128, p), id="weight_for-p"),
    pytest.param(lambda p: ShapingProfile(m=5, probs=(p, 0.24)), id="ShapingProfile-probs"),
    pytest.param(lambda p: effective_probabilities(p, 0.24, 256), id="effective_probabilities-p1"),
    pytest.param(lambda p: effective_probabilities(0.04, p, 256), id="effective_probabilities-p2"),
    pytest.param(lambda p: dm_complexity_bound(128, p), id="dm_complexity_bound-p"),
]


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.1, math.inf, -math.inf, True, "0.5", None],
                         ids=["nan", "-0.1", "1.1", "inf", "-inf", "bool", "string", "none"])
@pytest.mark.parametrize("call", PROBABILITY_ARGUMENTS)
def test_refuses_what_is_no_probability(call, p):
    with pytest.raises(ParameterError, match=r"must lie in \[0, 1\]"):
        call(p)


@pytest.mark.parametrize("call", PROBABILITY_ARGUMENTS)
def test_takes_the_unit_interval(call):
    call(0.0)
    call(1.0)
    assert repr(call(np.float64(0.25))) == repr(call(0.25))
