"""Public surface and the names the benchmark harness relies on.

perfbench/ drives the package through module attributes (it rebinds some
of them for tracing), so a rename there would only show when the benchmark
runs. These checks catch it in the test suite instead.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import signshape
from signshape import DmCode, ShaperConfig, ShapingProfile, SimConfig, shaper, simulate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = [
    "BudgetReport",
    "Constellation",
    "DmCode",
    "IntegrityError",
    "MiCurve",
    "NumericalError",
    "OptimizationResult",
    "ParameterError",
    "ShapedBlock",
    "ShaperConfig",
    "ShapingError",
    "ShapingProfile",
    "SimConfig",
    "SimReport",
    "SymbolDistribution",
    "awgn_mi",
    "build_ask",
    "decode_block",
    "dm_code",
    "dm_complexity_bound",
    "dm_decode",
    "dm_encode",
    "effective_probabilities",
    "empirical_source_frequencies",
    "encode_block_dm",
    "encode_block_ideal",
    "induced_distribution",
    "loss_budget",
    "mi_curve_for_profile",
    "mi_curve_optimized",
    "mi_gap_db",
    "optimize_profile",
    "rank",
    "rate_loss",
    "rate_loss_to_db",
    "run",
    "selection_tables",
    "sigma_for_snr",
    "snr_db_for",
    "switch_energy_loss",
    "switch_excess_expectation",
    "unrank",
    "unrank_counted",
    "weight_for",
]

# parameter names of entry points that take no tuning knobs
SIGNATURES = {
    "optimize_profile": ["m", "num_distinct", "noise_std", "snr_db", "warm_start"],
    "mi_curve_for_profile": ["profile", "snr_db_grid"],
    "mi_curve_optimized": ["m", "num_distinct", "snr_db_grid"],
    "loss_budget": ["m", "p1", "p2", "n", "snr_db"],
    "encode_block_ideal": ["config"],
}

MODULES = ["budget", "constellation", "enumdm", "errors", "midist", "shaper", "simulate"]


def test_package_exports():
    assert signshape.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(signshape, name), name


def test_signatures():
    for name, params in SIGNATURES.items():
        assert list(inspect.signature(getattr(signshape, name)).parameters) == params, name
    # perfbench's tracer reads the default quadrature order from here, and
    # a fourth positional argument as the order
    mi_params = inspect.signature(signshape.awgn_mi).parameters
    assert list(mi_params)[3] == "order"
    assert mi_params["order"].default is not inspect.Parameter.empty
    assert mi_params["grad"].kind is inspect.Parameter.KEYWORD_ONLY
    assert mi_params["grad"].default is False


def test_module_exports_resolve():
    for module_name in MODULES:
        module = importlib.import_module(f"signshape.{module_name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"signshape.{module_name}.{name}"


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.REBINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    # every `from signshape... import name` in the workloads, and every
    # `module.name` they read from an imported package module
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("signshape"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert "shaper" in imported and "ShaperConfig" in imported
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = imported.get(node.value.id)
            if owner is not None and owner.__name__.startswith("signshape"):
                assert hasattr(owner, node.attr), f"{owner.__name__}.{node.attr}"
    for attr in ("dm_codes", "constellation", "info_length"):
        assert hasattr(imported["ShaperConfig"], attr)


def test_matcher_calls_keep_the_tracer_contract(monkeypatch):
    # perfbench's tracer captures every matcher word by rebinding
    # shaper.dm_encode, reads (bits, code) from its positional args and
    # replays each bits array as one 1-D row through unrank_counted. Only
    # codes over the table cap make those calls: n = 8192's length-4096
    # matchers do, n = 256's unrank from a table and make none.
    calls = []
    real = shaper.dm_encode

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(shaper, "dm_encode", recording)
    short = SimConfig(
        shaper=ShaperConfig(profile=ShapingProfile(m=4, probs=(0.05, 0.15, 0.3, 0.45)), n=256),
        noise_std=1.0,
        num_blocks=40,
    )
    simulate.run(short)
    assert calls == []
    config = SimConfig(
        shaper=ShaperConfig(profile=ShapingProfile(m=5, probs=(0.04, 0.24)), n=8192),
        noise_std=1.0,
        num_blocks=3,
    )
    simulate.run(config)
    codes = config.shaper.dm_codes
    assert len(calls) == config.num_blocks * len(codes)
    for args, kwargs in calls:
        assert kwargs == {} and len(args) == 2
        bits, code = args
        assert isinstance(code, DmCode)
        assert isinstance(bits, np.ndarray) and bits.shape == (code.k,)
    assert Counter(codes.index(args[1]) for args, _ in calls) == {i: 3 for i in range(2)}


def _run_child(code: str) -> str:
    """Stdout of `code` run on this package in a fresh interpreter.

    A fresh one, since this one has scipy loaded by other tests.
    """
    src = str(Path(signshape.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_runtime_loads_no_scipy():
    child = (
        "import json, sys\n"
        "import signshape, signshape.cli\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.split('.')[0].startswith('scipy')]\n"
        "on_import = loaded()\n"
        "signshape.optimize_profile(3, 1, snr_db=10.0)\n"
        "print(json.dumps([on_import, loaded()]))\n"
    )
    on_import, after_optimize = json.loads(_run_child(child).splitlines()[-1])
    assert on_import == []
    assert after_optimize == []


def test_runs_with_scipy_unimportable(tmp_path):
    # scipy is a test-only dependency: refuse every scipy import, then run
    # the optimizer through the CLI and the library, and the loss budget
    child = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is not installed')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from signshape import cli, mi_curve_optimized\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['optimize', '--m', '5', '--P', '2', '--snr', '14', '15',\n"
        "                 '--out-dir', out]) == 0\n"
        "assert cli.main(['budget', '--m', '5', '--probs', '0.04', '0.24', '--n', '2048',\n"
        "                 '--snr', '16', '--out-dir', out]) == 0\n"
        "curve = mi_curve_optimized(6, 16, [28, 29])\n"
        "print('ok', len(curve.profiles), 'scipy' in sys.modules)\n"
    )
    assert _run_child(child).splitlines()[-1] == "ok 2 False"


def test_import_does_not_load_the_cli():
    # the library and perfbench never pay for the command line front end, so
    # changes confined to signshape.cli cannot move the benchmark
    child = (
        "import sys\n"
        "import signshape\n"
        "print(sorted(m for m in sys.modules if m.startswith('signshape')))\n"
    )
    loaded = _run_child(child).splitlines()[-1]
    assert "signshape.cli" not in loaded
    assert "signshape.simulate" in loaded
