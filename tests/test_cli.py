"""Command line interface tests: exit codes, outputs, manifests, config."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signshape
from signshape import (
    ShapingProfile,
    effective_probabilities,
    switch_energy_loss,
)
from signshape.cli import _MAX_WORK, main
from signshape.enumdm import MAX_MATCHER_LENGTH


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_usage_error_on_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_parameter_error_is_2(self, tmp_path):
        # P = 3 does not divide M/4 = 8
        code = main(["--out-dir", str(tmp_path), "optimize", "--m", "5",
                     "--P", "3", "--snr", "10"])
        assert code == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--m", "3", "--P", "2", "--probs", "0.04", "0.24",
         "--n", "64", "--blocks", "2"],
        ["optimize", "--m", "3", "--P", "2"],
    ], ids=["simulate", "optimize"])
    def test_non_finite_sigma_is_2(self, tmp_path, command, sigma):
        assert main(["--out-dir", str(tmp_path), *command, "--sigma", sigma]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["budget", "--m", "5", "--p1", "0.04", "--p2", "0.24", "--n", "512", "--snr"],
        ["dm", "rate-loss", "--n", "64", "--p", "0.2", "--ref-rate"],
    ], ids=["budget-snr", "rate-loss-ref-rate"])
    def test_non_finite_value_is_2(self, tmp_path, command, value):
        # both used to die in np.arange with a traceback (exit 1)
        assert main(["--out-dir", str(tmp_path), *command, value]) == 2

    def test_mi_memory_cap_is_2(self, tmp_path, capsys):
        # at 20 dB the uniform start's noise puts 4096-ASK's symbols 0.008
        # noise standard deviations apart: every offset is in the window,
        # and band and index are 256 MB each
        code = main(["--out-dir", str(tmp_path), "optimize", "--m", "12",
                     "--P", "2", "--snr", "20"])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_1024_ask_within_mi_memory_cap(self, tmp_path):
        # 1024-ASK's band and index are at most 32 MB, within awgn_mi's cap
        code = main(["--out-dir", str(tmp_path), "optimize", "--m", "10",
                     "--P", "2", "--snr", "60"])
        assert code == 0

    @pytest.mark.parametrize("command", [
        ["optimize", "--m", "12", "--P", "2", "--snr", "70"],
        ["budget", "--m", "12", "--p1", "0.04", "--p2", "0.24", "--n", "512", "--snr", "70"],
    ], ids=["optimize", "budget"])
    def test_4096_ask_runs_where_its_window_is_narrow(self, tmp_path, command):
        # at 70 dB the window holds the offsets of up to 16 symbols
        assert main(["--out-dir", str(tmp_path), *command]) == 0

    def test_1024_ask_simulate_at_small_sigma_stays_small(self, tmp_path):
        # a dense MI histogram needed 1.3 GB here; the band holds 1024 x 69
        # cells. A wrapper process reads the command's own peak, not that of
        # every child this test session has run.
        wrapper = (
            "import resource, subprocess, sys\n"
            "code = subprocess.run([sys.executable, '-m', 'signshape', *sys.argv[1:]]).returncode\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = str(Path(signshape.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "--out-dir", str(tmp_path), "simulate",
             "--m", "10", "--P", "1", "--probs", "0.2", "--n", "256", "--blocks", "16",
             "--sigma", "0.05"],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        code, peak_kib = map(int, result.stdout.split()[-2:])
        assert code == 0
        assert peak_kib / 1024 < 200

    def test_sigma_beyond_int64_bins_is_2(self, tmp_path, capsys):
        # snr_db_for used to divide by a noise power that underflows to 0 (exit 1)
        code = main(["--out-dir", str(tmp_path), "simulate", "--m", "10", "--P", "1",
                     "--probs", "0.2", "--n", "256", "--sigma", "1e-300"])
        assert code == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("command, p", [
        ("bench", "nan"),  # used to exit 1 on ValueError
        ("roundtrip", "inf"),  # used to exit 1 on OverflowError
        ("roundtrip", "-0.1"),
        ("bench", "1.5"),
    ])
    def test_density_outside_unit_interval_is_2(self, tmp_path, capsys, command, p):
        code = main(["--out-dir", str(tmp_path), "dm", command, "--n", "64", "--p", p])
        assert code == 2
        assert "[0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, samples", [
        ("bench", "0"),  # used to divide by zero (exit 1)
        ("roundtrip", "-1"),  # used to exit 0 reporting checked=-1
    ])
    def test_samples_below_one_is_2(self, tmp_path, capsys, command, samples):
        code = main(["--out-dir", str(tmp_path), "dm", command, "--n", "64",
                     "--samples", samples])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag", [
        (["dm", "roundtrip", "--n", "8192"], "--samples"),
        (["dm", "bench", "--n", "8192"], "--samples"),
        (["simulate", "--m", "3", "--P", "2", "--probs", "0.04", "0.24",
          "--n", "8192", "--sigma", "0.5"], "--blocks"),
    ], ids=["roundtrip-samples", "bench-samples", "simulate-blocks"])
    def test_work_above_cap_is_2(self, tmp_path, capsys, command, flag):
        count = str(_MAX_WORK // 8192 + 1)
        assert main(["--out-dir", str(tmp_path), *command, flag, count]) == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("snr", ["-4000", "-inf"])
    def test_snr_without_noise_level_is_2(self, tmp_path, capsys, snr):
        # 10 ** (snr / 10) is 0 here: both used to exit 1 on ZeroDivisionError
        code = main(["--out-dir", str(tmp_path), "optimize", "--m", "3",
                     "--P", "1", f"--snr={snr}"])
        assert code == 2
        assert "snr" in capsys.readouterr().err.lower()

    def test_missing_required_is_2(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "budget", "--m", "5",
                     "--p1", "0.04", "--n", "128", "--snr", "17"])
        assert code == 2

    def test_integrity_error_is_3(self, tmp_path):
        block = tmp_path / "bad.json"
        encode = main(["--out-dir", str(tmp_path), "shape", "encode",
                       "--m", "3", "--P", "2", "--probs", "0.04", "0.24",
                       "--n", "64"])
        assert encode == 0
        text = (tmp_path / "shape-block.json").read_text()
        payload = json.loads(text)
        payload["symbols"][0] = 6  # even value cannot be a symbol
        block.write_text(json.dumps(payload))
        code = main(["--out-dir", str(tmp_path), "shape", "decode",
                     "--block", str(block)])
        assert code == 3

    @pytest.mark.parametrize(
        "field, index, value, expected",
        [
            ("header", "m", "five", 2),
            ("symbols", 1, "x", 3),
            ("symbols", 1, 1.5, 3),
            ("symbols", 1, True, 3),
            ("symbols", 1, False, 3),
        ],
    )
    def test_malformed_block_file(self, tmp_path, field, index, value, expected):
        # once an uncaught ValueError (exit 1) or, for 1.5, a silent
        # truncation to 1
        assert main(["--out-dir", str(tmp_path), "shape", "encode", "--m", "3",
                     "--P", "2", "--probs", "0.04", "0.24", "--n", "64"]) == 0
        payload = read_json(tmp_path / "shape-block.json")
        payload[field][index] = value
        block = tmp_path / "bad.json"
        block.write_text(json.dumps(payload))
        assert main(["--out-dir", str(tmp_path), "shape", "decode",
                     "--block", str(block)]) == expected

    def test_missing_file_is_2(self, tmp_path):
        code = main(["--out-dir", str(tmp_path), "shape", "decode",
                     "--block", str(tmp_path / "nope.json")])
        assert code == 2

    def test_range_error_is_3(self, tmp_path):
        # exhaustive roundtrip guard trips ParameterError -> 2, but a bad
        # weight in rank() maps to 3; easiest trigger is decode mismatch
        code = main(["--out-dir", str(tmp_path), "dm", "roundtrip",
                     "--n", "8", "--w", "3", "--exhaustive"])
        assert code == 0

    def test_matcher_length_limit_is_2(self, tmp_path):
        too_long = MAX_MATCHER_LENGTH + 1
        assert main(["--out-dir", str(tmp_path), "dm", "roundtrip",
                     "--n", str(too_long), "--w", "3"]) == 2
        # P = 2 gives each matcher n/2 symbols
        assert main(["--out-dir", str(tmp_path), "shape", "encode",
                     "--m", "5", "--P", "2", "--probs", "0.04", "0.24",
                     "--n", str(2 * too_long)]) == 2


class TestDmCommands:
    def test_roundtrip_output(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "dm", "roundtrip",
                     "--n", "10", "--w", "3", "--exhaustive"]) == 0
        payload = read_json(tmp_path / "dm-roundtrip.json")
        assert payload["ok"] is True
        assert payload["checked"] == 120
        manifest = read_json(tmp_path / "dm-roundtrip-manifest.json")
        assert manifest["command"] == "dm-roundtrip"
        assert str(tmp_path / "dm-roundtrip.json") in manifest["outputs"]

    def test_roundtrip_sampled(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "dm", "roundtrip",
                     "--n", "512", "--p", "0.1", "--samples", "25"]) == 0
        payload = read_json(tmp_path / "dm-roundtrip.json")
        assert payload["checked"] == 25
        assert payload["exhaustive"] is False

    def test_rate_loss_table(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "dm", "rate-loss",
                     "--n", "800", "1000", "--p", "0.14"]) == 0
        rows = read_csv(tmp_path / "dm-rate-loss.csv")
        assert rows[0] == ["n", "w", "k", "rate_loss_bpcu", "loss_db"]
        assert len(rows) == 3
        assert float(rows[1][4]) == pytest.approx(0.04, abs=0.01)

    def test_bench(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "dm", "bench",
                     "--n", "256", "--p", "0.1", "--samples", "50"]) == 0
        payload = read_json(tmp_path / "dm-bench.json")
        assert payload["within_bound"] is True
        assert payload["mean_comparisons_per_bit"] <= payload["bound_per_bit"]


class TestShapeCommands:
    def test_encode_decode_roundtrip(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "--seed", "9", "shape",
                     "encode", "--m", "3", "--P", "2", "--probs", "0.04",
                     "0.24", "--n", "256"]) == 0
        assert main(["--out-dir", str(tmp_path), "shape", "decode",
                     "--block", str(tmp_path / "shape-block.json"),
                     "--expect-info", str(tmp_path / "shape-info.txt")]) == 0
        decoded = (tmp_path / "shape-decoded-info.txt").read_text().strip()
        expected = (tmp_path / "shape-info.txt").read_text().strip()
        assert decoded == expected

    def test_encode_deterministic_in_seed(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            assert main(["--out-dir", str(d), "--seed", "4", "shape",
                         "encode", "--m", "3", "--P", "2", "--probs",
                         "0.04", "0.24", "--n", "128"]) == 0
        a = (a_dir / "shape-block.json").read_text()
        b = (b_dir / "shape-block.json").read_text()
        assert a == b

    def test_analyze_switch_table(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "shape", "analyze-switch",
                     "--p1", "0.04", "--p2", "0.24", "--n", "256", "1024"]) == 0
        rows = read_csv(tmp_path / "switch-analysis.csv")
        assert rows[0] == ["n", "epsilon", "p1_eff", "p2_eff", "delta_db"]
        eps_256 = float(rows[1][1])
        assert eps_256 == pytest.approx(np.sqrt(256 / (8 * np.pi)), rel=0.01)
        profile = ShapingProfile(m=5, probs=(0.04, 0.24))
        for row in rows[1:]:
            n = int(row[0])
            p1_eff, p2_eff = effective_probabilities(0.04, 0.24, n)
            assert [float(v) for v in row[2:]] == [
                p1_eff, p2_eff, switch_energy_loss(profile, n)
            ]


class TestSimulateCommand:
    def test_single_point(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "simulate", "--m", "3",
                     "--P", "2", "--probs", "0.04", "0.24", "--n", "128",
                     "--blocks", "2", "--snr", "12"]) == 0
        payload = read_json(tmp_path / "simulate-report.json")
        assert len(payload) == 1
        assert payload[0]["snr_db"] == 12.0
        assert 0.0 <= payload[0]["symbol_error_rate"] <= 1.0

    def test_sweep_csv(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "simulate", "--m", "3",
                     "--P", "2", "--probs", "0.04", "0.24", "--n", "128",
                     "--blocks", "2", "--snr", "8", "12", "16"]) == 0
        rows = read_csv(tmp_path / "simulate-sweep.csv")
        assert rows[0] == ["snr_db", "ser", "mi_estimate"]
        assert len(rows) == 4
        sers = [float(r[1]) for r in rows[1:]]
        assert sers == sorted(sers, reverse=True)


class TestOptimizeCommand:
    def test_curve_outputs(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "optimize", "--m", "3",
                     "--P", "2", "--snr", "8", "10"]) == 0
        rows = read_csv(tmp_path / "optimize-curve.csv")
        assert rows[0] == ["snr_db", "mi_bpcu", "p1", "p2"]
        assert len(rows) == 3
        results = read_json(tmp_path / "optimize-results.json")
        assert results[1]["profile"]["probs"][0] == pytest.approx(0.08, abs=0.02)

    def test_results_schema(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "optimize", "--m", "3",
                     "--P", "2", "--sigma", "1", "2"]) == 0
        for entry in read_json(tmp_path / "optimize-results.json"):
            assert set(entry) == {"profile", "mi_bpcu", "snr_db", "noise_std",
                                  "evaluations", "mode", "kkt_residual"}

    def test_step_flags_removed(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--out-dir", str(tmp_path), "optimize", "--coarse-step", "0.02",
                  "--m", "3", "--P", "2", "--snr", "10"])
        assert excinfo.value.code == 2

    def test_json_only_flag(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "--json", "optimize",
                     "--m", "3", "--P", "1", "--snr", "8"]) == 0
        assert not (tmp_path / "optimize-curve.csv").exists()
        assert (tmp_path / "optimize-results.json").exists()


class TestBudgetCommand:
    def test_budget_json(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "budget", "--m", "5",
                     "--p1", "0.04", "--p2", "0.24", "--n", "2048",
                     "--snr", "17"]) == 0
        payload = read_json(tmp_path / "budget.json")
        assert payload["total_db"] == pytest.approx(0.145, abs=0.02)

    def test_asymptotic_flag(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "budget", "--m", "5",
                     "--p1", "0.04", "--p2", "0.24", "--n", "2048",
                     "--snr", "17", "--asymptotic"]) == 0
        payload = read_json(tmp_path / "budget.json")
        assert payload["matcher_db"] == 0.0
        assert payload["switch_db"] == 0.0


class TestConfigMerge:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "P": 2, "probs": [0.04, 0.24]}))
        assert main(["--out-dir", str(tmp_path), "--config", str(cfg),
                     "shape", "encode", "--n", "64"]) == 0
        manifest = read_json(tmp_path / "shape-encode-manifest.json")
        assert manifest["params"]["m"] == 3

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "P": 2, "probs": [0.04, 0.24],
                                   "n": 64}))
        assert main(["--out-dir", str(tmp_path), "--config", str(cfg),
                     "shape", "encode", "--n", "128"]) == 0
        manifest = read_json(tmp_path / "shape-encode-manifest.json")
        assert manifest["params"]["n"] == 128

    def test_config_seed_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 77}))
        assert main(["--out-dir", str(tmp_path), "--config", str(cfg),
                     "dm", "roundtrip", "--n", "64", "--p", "0.1",
                     "--samples", "5"]) == 0
        manifest = read_json(tmp_path / "dm-roundtrip-manifest.json")
        assert manifest["seed"] == 77

    @pytest.mark.parametrize(
        "argv",
        [
            ["--conf", "{cfg}", "dm", "roundtrip"],
            ["dm", "roundtrip", "--config", "{cfg}"],
        ],
        ids=["abbreviated", "after-subcommand"],
    )
    def test_config_found_anywhere(self, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 77, "n": 32}))
        argv = [a.format(cfg=cfg) for a in argv]
        assert main(["--out-dir", str(tmp_path), *argv, "--n", "64", "--p", "0.1",
                     "--samples", "5"]) == 0
        manifest = read_json(tmp_path / "dm-roundtrip-manifest.json")
        assert manifest["seed"] == 77
        assert manifest["params"]["n"] == 64

    def test_bad_config_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert main(["--config", str(cfg), "dm", "roundtrip", "--n", "8"]) == 2


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "dm", "bench", "--n", "64",
                     "--p", "0.1", "--samples", "10"]) == 0
        manifest = read_json(tmp_path / "dm-bench-manifest.json")
        assert set(manifest) == {
            "command", "argv", "params", "seed", "version", "outputs",
            "duration_s",
        }
        assert manifest["params"]["samples"] == 10
        assert manifest["duration_s"] >= 0
