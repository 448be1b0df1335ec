"""One integer rule, one probability rule and one real-number rule at every entry point.

Integer arguments (sizes, counts, seeds, indices, the quadrature order) take
Python and numpy integers alike and refuse bool; probabilities lie in [0, 1];
noise levels, SNRs, energies and rates are finite Python or numpy real numbers,
not bool, within their lower bound. Anything else raises ParameterError.
"""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

import signshape
from signshape import (
    MiCurve,
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
    mi_gap_db,
    optimize_profile,
    rate_loss,
    rate_loss_to_db,
    selection_tables,
    sigma_for_snr,
    snr_db_for,
    switch_energy_loss,
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
    pytest.param(lambda m: optimize_profile(m, 1, snr_db=10.0), 4, id="optimize_profile-m"),
    pytest.param(lambda P: optimize_profile(4, P, snr_db=10.0), 2,
                 id="optimize_profile-num_distinct"),
    pytest.param(lambda m: mi_curve_optimized(m, 1, [9.0, 10.0]), 4, id="mi_curve_optimized-m"),
    pytest.param(lambda P: mi_curve_optimized(4, P, [9.0, 10.0]), 2,
                 id="mi_curve_optimized-num_distinct"),
    pytest.param(lambda P: list(_warm_sweep(4, P, "snr_db", [9.0, 10.0])), 2,
                 id="_warm_sweep-num_distinct"),
    pytest.param(lambda m: selection_tables(m, 2), 5, id="selection_tables-m"),
    pytest.param(lambda P: selection_tables(5, P), 2, id="selection_tables-num_distinct"),
    pytest.param(lambda n: shaper_config(n=n), 64, id="ShaperConfig-n"),
    pytest.param(lambda seed: shaper_config(rng_seed=seed), 3, id="ShaperConfig-rng_seed"),
    pytest.param(switch_excess_expectation, 256, id="switch_excess_expectation-n"),
    pytest.param(lambda n: effective_probabilities(0.04, 0.24, n), 256,
                 id="effective_probabilities-n"),
    pytest.param(lambda n: switch_energy_loss(PROFILE, n), 256, id="switch_energy_loss-n"),
    pytest.param(lambda n: rate_loss(n, 0.1), 128, id="rate_loss-n"),
    pytest.param(lambda index: unrank(index, dm_code(8, 3)), 3, id="unrank-index"),
    pytest.param(lambda count: empirical_source_frequencies(CONFIG, count), 2,
                 id="empirical_source_frequencies-num_blocks"),
    pytest.param(lambda seed: empirical_source_frequencies(CONFIG, 2, seed=seed), 3,
                 id="empirical_source_frequencies-seed"),
    pytest.param(lambda count: simulation(num_blocks=count), 2, id="SimConfig-num_blocks"),
    pytest.param(lambda seed: simulation(rng_seed=seed), 3, id="SimConfig-rng_seed"),
    pytest.param(lambda m: loss_budget(m, 0.04, 0.24, 256, 16.0), 5, id="loss_budget-m"),
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
    for n in (10**5000, 10**5000 + 1):
        with pytest.raises(ParameterError, match=r"n / P must be <= 65536, got a 16609-bit"):
            ShaperConfig(PROFILE, n=n)
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
    pytest.param(lambda p: rate_loss(128, p), id="rate_loss-p"),
    pytest.param(lambda p: loss_budget(5, p, 0.24, 256, 16.0), id="loss_budget-p1"),
    pytest.param(lambda p: loss_budget(5, 0.04, p, 256, 16.0), id="loss_budget-p2"),
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


CURVE = MiCurve((10.0, 15.0, 20.0), (1.0, 2.0, 3.0))
# values refused at or below each lower bound, besides -inf
POSITIVE, NONNEGATIVE, FINITE = (0.0, -1.0), (-1.0, -5e-324), ()


def real(call, value, entry, name, refused):
    """A row of REAL_ARGUMENTS: call takes argument name of entry; value, a whole
    number that float32 holds exactly, is accepted; refused are also refused."""
    return pytest.param(call, value, name, refused, id=f"{entry}-{name}")


REAL_ARGUMENTS = [
    real(lambda s: awgn_mi([-1.0, 1.0], [0.5, 0.5], s), 1, "awgn_mi", "noise_std", POSITIVE),
    real(lambda s: optimize_profile(4, 2, s), 1, "optimize_profile", "noise_std", POSITIVE),
    real(lambda snr: optimize_profile(4, 2, snr_db=snr), 10, "optimize_profile", "snr_db", FINITE),
    real(lambda e: snr_db_for(e, 1.0), 2, "snr_db_for", "energy", POSITIVE),
    real(lambda s: snr_db_for(2.0, s), 1, "snr_db_for", "noise_std", POSITIVE),
    real(lambda e: sigma_for_snr(e, 10.0), 2, "sigma_for_snr", "energy", POSITIVE),
    real(lambda snr: sigma_for_snr(2.0, snr), 10, "sigma_for_snr", "snr_db", FINITE),
    real(lambda s: simulation(noise_std=s), 1, "SimConfig", "noise_std", NONNEGATIVE),
    real(lambda snr: loss_budget(5, 0.04, 0.24, 256, snr), 16, "loss_budget", "snr_db", FINITE),
    real(lambda s: MiCurve((0.0, s), (0.1, 0.2)), 2, "MiCurve", "snr_db", FINITE),
    real(lambda v: MiCurve((0.0, 1.0), (0.0, v)), 1, "MiCurve", "mi_bpcu", FINITE),
    real(CURVE.rate_at_snr, 12, "MiCurve.rate_at_snr", "snr_db", FINITE),
    real(CURVE.snr_at_rate, 2, "MiCurve.snr_at_rate", "rate_bpcu", FINITE),
    real(lambda r: mi_gap_db(CURVE, CURVE, r), 2, "mi_gap_db", "rate_bpcu", FINITE),
    real(lambda loss: rate_loss_to_db(loss, CURVE, 2.5), 1,
         "rate_loss_to_db", "rate_loss_bpcu", FINITE),
    real(lambda rate: rate_loss_to_db(0.5, CURVE, rate), 2,
         "rate_loss_to_db", "operating_rate", FINITE),
]

NO_REALS = {
    "bool": lambda value: True,
    "numpy-bool": lambda value: np.True_,
    "string": str,
    "none": lambda value: None,
    "nan": lambda value: math.nan,
    "inf": lambda value: math.inf,
    "-inf": lambda value: -math.inf,
}


@pytest.mark.parametrize("form", NO_REALS.values(), ids=NO_REALS.keys())
@pytest.mark.parametrize("call, value, name, refused", REAL_ARGUMENTS)
def test_refuses_what_is_no_finite_real(call, value, name, refused, form):
    # the message names the argument at fault: sigma_for_snr(nan, 10.0) blamed the SNR
    with pytest.raises(ParameterError, match=name):
        call(form(value))


@pytest.mark.parametrize("call, value, name, refused", REAL_ARGUMENTS)
def test_refuses_what_is_below_the_bound(call, value, name, refused):
    for below in refused:
        with pytest.raises(ParameterError, match=f"{name}.* must be a finite real number >"):
            call(below)


@pytest.mark.parametrize("form", [np.float64, np.float32, int], ids=["float64", "float32", "int"])
@pytest.mark.parametrize("call, value, name, refused", REAL_ARGUMENTS)
def test_numpy_and_int_act_as_the_equal_float(call, value, name, refused, form):
    # repr shows a numpy number kept where the float belongs, as SimConfig kept np.float64
    assert repr(call(form(value))) == repr(call(float(value)))


@pytest.mark.parametrize("grad", ["no", 0.0, 1, None], ids=["string", "float", "int", "none"])
def test_awgn_mi_grad_is_a_bool(grad):
    # "no" returned the 3-tuple, 0.0 the float
    with pytest.raises(ParameterError, match="grad must be a bool"):
        awgn_mi([-1.0, 1.0], [0.5, 0.5], 1.0, grad=grad)
    assert awgn_mi([-1.0, 1.0], [0.5, 0.5], 1.0, grad=np.False_) == awgn_mi(
        [-1.0, 1.0], [0.5, 0.5], 1.0)
    assert repr(awgn_mi([-1.0, 1.0], [0.5, 0.5], 1.0, grad=np.True_)) == repr(
        awgn_mi([-1.0, 1.0], [0.5, 0.5], 1.0, grad=True))


# records the library fills in: callers read them and build none from their own numbers
RECORDS = {"BudgetReport", "Constellation", "DmCode", "OptimizationResult", "ShapedBlock",
           "SimReport", "SymbolDistribution"}


def numeric_parameters():
    """entry-name of each parameter annotated int or float (or with None) that
    signshape.__all__ takes: functions, dataclass fields and public methods."""
    for entry in sorted(set(signshape.__all__) - RECORDS):
        obj = getattr(signshape, entry)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        calls = [(entry, obj)]
        if inspect.isclass(obj):
            calls += [(f"{entry}.{name}", method) for name, method in vars(obj).items()
                      if inspect.isfunction(method) and not name.startswith("_")]
        for label, call in calls:
            for param in inspect.signature(call).parameters.values():
                hint = param.annotation
                hint = hint if isinstance(hint, str) else inspect.formatannotation(hint)
                if {"int", "float"} & {part.strip() for part in hint.split("|")}:
                    yield f"{label}-{param.name}"


def test_every_numeric_parameter_has_a_rule_row():
    # a new entry point or argument needs a row in one of the three tables, or an exemption
    rows = {row.id for table in (INTEGER_ARGUMENTS, PROBABILITY_ARGUMENTS, REAL_ARGUMENTS)
            for row in table}
    found = set(numeric_parameters())
    assert sorted(found - rows) == []
    assert RECORDS <= set(signshape.__all__)
