"""Command line interface tests: exit codes, outputs, manifests, argument files."""

import argparse
import csv
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import signshape
from signshape import (
    NumericalError,
    ShaperConfig,
    ShapingProfile,
    cli,
    dm_code,
    effective_probabilities,
    encode_block_ideal,
    switch_energy_loss,
)
from signshape.cli import _MAX_WORK, main
from signshape.enumdm import MAX_MATCHER_LENGTH, unrank_counted, weight_for
from signshape.shaper import _uniform_info

from helpers import pascal_unrank_counted


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def run_measured(*argv):
    """(exit code, peak MB) of `signshape *argv` in a child process. A
    wrapper process reads the command's own peak, not that of every child
    this test session has run."""
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
        [sys.executable, "-c", wrapper, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    code, peak_kib = map(int, result.stdout.split()[-2:])
    return code, peak_kib / 1024


class TestExitCodes:
    def test_usage_error_on_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_parameter_error_is_2(self, tmp_path):
        # P = 3 does not divide M/4 = 8
        code = main(["optimize", "--m", "5", "--P", "3", "--snr", "10", "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--m", "3", "--probs", "0.04", "0.24",
         "--n", "64", "--blocks", "2"],
        ["optimize", "--m", "3", "--P", "2"],
    ], ids=["simulate", "optimize"])
    def test_non_finite_sigma_is_2(self, tmp_path, command, sigma):
        assert main([*command, "--sigma", sigma, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["budget", "--m", "5", "--probs", "0.04", "0.24", "--n", "512", "--snr"],
        ["dm", "rate-loss", "--n", "64", "--p", "0.2", "--ref-rate"],
    ], ids=["budget-snr", "rate-loss-ref-rate"])
    def test_non_finite_value_is_2(self, tmp_path, command, value):
        # both used to die in np.arange with a traceback (exit 1)
        assert main([*command, value, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", [
        ["budget", "--m", "3", "--probs", "0.04", "0.24", "--n", "2048", "--snr", "30"],
        ["budget", "--m", "5", "--probs", "0.04", "0.24", "--n", "2048", "--snr", "40"],
        ["budget", "--m", "5", "--probs", "0.04", "0.24", "--n", "2048", "--snr", "-400"],
        ["dm", "rate-loss", "--n", "64", "--p", "0.2", "--ref-rate", "1e-12"],
    ], ids=["budget-8-ask-30db", "budget-32-ask-40db", "budget-minus-400db", "rate-loss-tiny-rate"])
    def test_flat_mi_curve_is_2(self, tmp_path, capsys, command):
        # where MI no longer rises the matcher loss has no dB value; the
        # first and third exited 1 with an IndexError
        assert main([*command, "--out-dir", str(tmp_path)]) == 2
        assert "saturated" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        (["budget", "--m", "5", "--probs", "0.04", "0.24", "--n", "2048", "--snr", "-100"],
         "operating rate"),
        (["dm", "rate-loss", "--n", "800", "--p", "0.14", "--ref-rate", "1e-6"],
         "operating rate"),
        (["dm", "rate-loss", "--n", "800", "--p", "0.14", "--ref-rate", "1e-20"], "saturated"),
    ], ids=["budget-minus-100db", "rate-loss-rate-1e-6", "rate-loss-rate-1e-20"])
    def test_near_zero_operating_rate_is_2(self, tmp_path, capsys, command, message):
        # the first two reported 271143460 dB and 29250 dB (exit 0); at rate
        # 1e-20, 2^(2 rate) - 1 rounded to 0 and log10 raised (exit 1)
        out = tmp_path / "out"
        assert main([*command, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_mi_memory_cap_is_2(self, tmp_path, capsys):
        # at 20 dB the uniform start's noise puts 4096-ASK's symbols 0.008
        # noise standard deviations apart: every offset is in the window,
        # and band and index are 256 MB each
        code = main(["optimize", "--m", "12", "--P", "2", "--snr", "20",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_1024_ask_within_mi_memory_cap(self, tmp_path):
        # 1024-ASK's band and index are at most 32 MB, within awgn_mi's cap
        code = main(["optimize", "--m", "10", "--P", "2", "--snr", "60",
                     "--out-dir", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("command", [
        ["optimize", "--m", "12", "--P", "2", "--snr", "70"],
        ["budget", "--m", "12", "--probs", "0.04", "0.24", "--n", "512", "--snr", "70"],
    ], ids=["optimize", "budget"])
    def test_4096_ask_runs_where_its_window_is_narrow(self, tmp_path, command):
        # at 70 dB the window holds the offsets of up to 16 symbols
        assert main([*command, "--out-dir", str(tmp_path)]) == 0

    def test_1024_ask_simulate_at_small_sigma_stays_small(self, tmp_path):
        # a dense MI histogram needed 1.3 GB here; the band holds 1024 x 69
        # cells
        code, peak_mb = run_measured(
            "simulate", "--m", "10", "--probs", "0.2", "--n", "256", "--blocks", "16",
            "--sigma", "0.05", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert peak_mb < 200

    def test_sigma_beyond_int64_bins_is_2(self, tmp_path, capsys):
        # snr_db_for used to divide by a noise power that underflows to 0 (exit 1)
        code = main(["simulate", "--m", "10", "--probs", "0.2", "--n", "256", "--sigma", "1e-300",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("command, p", [
        ("roundtrip", "nan"),  # used to exit 1 on ValueError
        ("roundtrip", "inf"),  # used to exit 1 on OverflowError
        ("roundtrip", "-0.1"),
        ("rate-loss", "1.5"),
    ])
    def test_density_outside_unit_interval_is_2(self, tmp_path, capsys, command, p):
        code = main(["dm", command, "--n", "64", "--p", p, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "[0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [
        "0",  # used to divide by zero (exit 1)
        "-1",  # used to exit 0 reporting checked=-1
    ], ids=["roundtrip-0", "roundtrip--1"])
    def test_samples_below_one_is_2(self, tmp_path, capsys, samples):
        code = main(["dm", "roundtrip", "--n", "64", "--samples", samples,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag", [
        (["dm", "roundtrip", "--n", "8192"], "--samples"),
        (["simulate", "--m", "3", "--probs", "0.04", "0.24",
          "--n", "8192", "--sigma", "0.5"], "--blocks"),
    ], ids=["roundtrip-samples", "simulate-blocks"])
    def test_work_above_cap_is_2(self, tmp_path, capsys, command, flag):
        count = str(_MAX_WORK // 8192 + 1)
        assert main([*command, flag, count, "--out-dir", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_exhaustive_above_work_cap_is_2(self, tmp_path, capsys):
        # every one of the 1 999 000 words of 2000 symbols: a separate
        # exhaustive check once ran for minutes past the cap
        started = time.monotonic()
        assert main(["dm", "roundtrip", "--n", "2000", "--p", "0.001",
                     "--samples", str(math.comb(2000, 2)), "--out-dir", str(tmp_path)]) == 2
        assert time.monotonic() - started < 1
        assert "--samples" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_work_cap_charges_32_symbols_a_word_at_small_n(self, tmp_path, capsys, monkeypatch):
        # at n = 1 a word's fixed cost dominates: 2^27 words ran for half an
        # hour, and roundtrip built a 1 GiB list of their indices first; a
        # codebook of C(30, 15) words lets every count here be drawn
        argv = ["dm", "roundtrip", "--n", "30", "--p", "0.5", "--out-dir", str(tmp_path),
                "--samples"]
        started = time.monotonic()
        for samples in (1 << 27, _MAX_WORK // cli._MIN_ITEM_COST + 1):
            assert main([*argv, str(samples)]) == 2
            assert "--samples" in capsys.readouterr().err
        assert time.monotonic() - started < 1
        assert not list(tmp_path.iterdir())
        # the largest accepted count runs for minutes, so it is checked
        # here on a cap scaled down to 1000 words of at most 32 symbols
        cli._require_work("samples", _MAX_WORK // cli._MIN_ITEM_COST, 30)
        monkeypatch.setattr(cli, "_MAX_WORK", cli._MIN_ITEM_COST * 1000)
        assert main([*argv, "1000"]) == 0
        assert main([*argv, "1001"]) == 2

    @pytest.mark.parametrize("n, largest", [(8192, 16384), (16384, 4096), (65534, 256), (65536, 256)])
    @pytest.mark.parametrize("command, flag", [
        (["dm", "roundtrip", "--p", "0.5"], "--samples"),
        (["simulate", "--m", "3", "--probs", "0.5", "--sigma", "0.5"], "--blocks"),
    ], ids=["roundtrip", "simulate"])
    def test_work_cap_charges_long_words_by_their_length(self, tmp_path, capsys, command, flag,
                                                         n, largest):
        # a dense word's time grows as n^2 above 2^13, so 2^27 / n words of
        # 2^16 took 17 minutes; counting each n / 2^13 times holds it to 2
        cli._require_work(flag[2:], largest, n)
        argv = [*command, "--n", str(n), flag, str(largest + 1), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--m", "3", "--P", "1"], "--snr --sigma is required"),
        (["shape", "encode", "--m", "3", "--probs", "0.04", "0.24", "--n", "64",
          "--info-file", "{blank}"], "no 0/1"),
        # ideal-sources draws its own bits: the file was ignored, missing or not (exit 0)
        (["shape", "encode", "--mode", "ideal-sources", "--m", "3", "--probs", "0.2",
          "--n", "64", "--info-file", "{missing}"], "--info-file"),
        # an argument file that is not there
        (["dm", "roundtrip", "--n", "8", "@{missing}"], "No such file or directory"),
    ], ids=["no-noise-grid", "info-without-bits", "info-file-ideal-sources", "config-missing"])
    def test_refused_arguments_are_2(self, tmp_path, capsys, argv, message):
        files = {name: tmp_path / name for name in ("blank", "missing")}
        files["blank"].write_text(" \n\t\n")
        out = tmp_path / "out"
        assert exit_code([*(arg.format(**files) for arg in argv), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_codes_past_str_digit_limit(self, tmp_path, capsys):
        # C(n, w) here has over 4300 decimal digits, which str() refuses:
        # both runs used to exit 1 on ValueError
        out = ["dm", "roundtrip", "--n", "65536", "--out-dir", str(tmp_path)]
        assert main([*out, "--p", "0.04", "--samples", "1"]) == 0
        assert "num_words" not in read_json(tmp_path / "dm-roundtrip.json")
        assert main([*out, "--p", "0.24", "--samples", "257"]) == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["-4000", "-inf"])
    def test_snr_without_noise_level_is_2(self, tmp_path, capsys, snr):
        # 10 ** (snr / 10) is 0 here: both used to exit 1 on ZeroDivisionError
        code = main(["optimize", "--m", "3", "--P", "1", f"--snr={snr}",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "snr" in capsys.readouterr().err.lower()

    def test_missing_required_is_2(self, tmp_path, capsys):
        # argparse refuses it, before any out-dir is made
        out = tmp_path / "out"
        assert exit_code(["budget", "--m", "5", "--n", "128", "--snr", "17",
                          "--out-dir", str(out)]) == 2
        assert "required: --probs" in capsys.readouterr().err
        assert not out.exists()

    def test_integrity_error_is_3(self, tmp_path):
        block = tmp_path / "bad.json"
        encode = main(["shape", "encode", "--m", "3", "--probs", "0.04", "0.24", "--n", "64",
                       "--out-dir", str(tmp_path)])
        assert encode == 0
        text = (tmp_path / "shape-block.json").read_text()
        payload = json.loads(text)
        payload["symbols"][0] = 6  # even value cannot be a symbol
        block.write_text(json.dumps(payload))
        code = main(["shape", "decode", "--block", str(block), "--out-dir", str(tmp_path)])
        assert code == 3

    def test_word_outside_the_encoder_image_is_3(self, tmp_path, capsys):
        # one source serves every symbol in order, and all-zero info makes
        # its word rank 0, the w ones packed at the end; swapping symbols
        # for their same-prefix partners (s -/+ M flips the sign bit, so the
        # matcher bit) moves the ones to the front: rank C(n, w) - 1 >= 2^k
        n, w, M = 64, 15, 8
        info = tmp_path / "zeros.txt"
        info.write_text("0" * (dm_code(n, w).k + n * 2) + "\n")
        assert main(["shape", "encode", "--m", "3", "--probs", "0.24", "--n", str(n),
                     "--info-file", str(info), "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "shape-block.json")
        symbols = payload["symbols"]
        for j in [*range(w), *range(n - w, n)]:
            symbols[j] += -M if symbols[j] > 0 else M
        block = tmp_path / "bent.json"
        block.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["shape", "decode", "--block", str(block), "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "outside the encoder image" in capsys.readouterr().err

    def test_numerical_error_is_4(self, tmp_path, monkeypatch, capsys):
        def fails(*args):
            raise NumericalError("no convergence")

        monkeypatch.setattr(cli, "loss_budget", fails)
        out = tmp_path / "out"
        assert main([*SUBCOMMANDS["budget"], "--out-dir", str(out)]) == 4
        assert "numerical error: no convergence" in capsys.readouterr().err
        assert not out.exists()

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
        assert main(["shape", "encode", "--m", "3", "--probs", "0.04", "0.24", "--n", "64",
                     "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "shape-block.json")
        payload[field][index] = value
        block = tmp_path / "bad.json"
        block.write_text(json.dumps(payload))
        assert main(["shape", "decode", "--block", str(block),
                     "--out-dir", str(tmp_path)]) == expected

    def test_missing_file_is_2(self, tmp_path):
        code = main(["shape", "decode", "--block", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_range_error_is_3(self, tmp_path, capsys):
        # moving one symbol by -/+M keeps its prefix and flips its sign bit,
        # so its matcher bit: the one matcher of P = 1 then reads a word of
        # the wrong weight, which rank refuses
        assert main(["shape", "encode", "--m", "3", "--probs", "0.24", "--n", "64",
                     "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "shape-block.json")
        symbols = payload["symbols"]
        symbols[0] += -8 if symbols[0] > 0 else 8
        block = tmp_path / "moved.json"
        block.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["shape", "decode", "--block", str(block), "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "matcher requires" in capsys.readouterr().err

    def test_matcher_length_limit_is_2(self, tmp_path):
        too_long = MAX_MATCHER_LENGTH + 1
        assert main(["dm", "roundtrip", "--n", str(too_long), "--p", "0.001",
                     "--out-dir", str(tmp_path)]) == 2
        # P = 2 gives each matcher n/2 symbols
        assert main(["shape", "encode", "--m", "5", "--probs", "0.04", "0.24",
                     "--n", str(2 * too_long), "--out-dir", str(tmp_path)]) == 2


class TestDmCommands:
    def test_roundtrip_output(self, tmp_path):
        # the default --samples covers all C(10, 3) = 120 words, each checked once
        assert main(["dm", "roundtrip", "--n", "10", "--p", "0.3", "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "dm-roundtrip.json")
        assert payload["ok"] is True
        assert payload["exhaustive"] is True
        assert payload["checked"] == 120
        counts = [pascal_unrank_counted(i, 10, 3)[1] for i in range(120)]
        assert payload["mean_comparisons_per_bit"] == sum(counts) / (120 * 10)
        assert payload["max_comparisons_per_bit"] == max(counts) / 10
        manifest = read_json(tmp_path / "dm-roundtrip-manifest.json")
        assert manifest["command"] == "dm-roundtrip"
        assert str(tmp_path / "dm-roundtrip.json") in manifest["outputs"]

    def test_roundtrip_sampled(self, tmp_path):
        assert main(["dm", "roundtrip", "--n", "512", "--p", "0.1", "--samples", "25",
                     "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "dm-roundtrip.json")
        assert payload["checked"] == 25
        assert payload["exhaustive"] is False

    def test_rate_loss_table(self, tmp_path):
        assert main(["dm", "rate-loss", "--n", "800", "1000", "--p", "0.14",
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "dm-rate-loss.csv")
        assert rows[0] == ["n", "w", "k", "rate_loss_bpcu", "loss_db"]
        assert len(rows) == 3
        assert float(rows[1][4]) == pytest.approx(0.04, abs=0.01)

    def test_rate_loss_near_length_limit_stays_small(self, tmp_path):
        # each matcher kept its own 65 537 ln t! values, and dm_code's cache
        # kept 64 matchers: 193 MB here
        lengths = [str(n) for n in range(65410, 65537, 2)]
        code, peak_mb = run_measured(
            "dm", "rate-loss", "--p", "0.24", "--n", *lengths, "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert peak_mb < 50

    def test_roundtrip_counts_probes_of_its_draws(self, tmp_path):
        assert main(["dm", "roundtrip", "--n", "256", "--p", "0.1", "--samples", "50",
                     "--out-dir", str(tmp_path), "--seed", "7"]) == 0
        payload = read_json(tmp_path / "dm-roundtrip.json")
        code = dm_code(256, weight_for(256, 0.1))
        rng = random.Random(7)
        counts = [unrank_counted(rng.randrange(math.comb(256, code.w)), code)[1]
                  for _ in range(50)]
        mean, worst = payload["mean_comparisons_per_bit"], payload["max_comparisons_per_bit"]
        assert mean == sum(counts) / (50 * 256)
        assert worst == max(counts) / 256
        assert 0 < mean <= worst <= 1

    @pytest.mark.parametrize("argv, code, wall_s", [
        # --n up to the matcher length cap, one word of work at the scaled cap
        pytest.param(["--n", "65536", "--p", "0.00005", "--samples", "1"], 0, 5, id="n-cap"),
        pytest.param(["--n", "65537", "--p", "0.00005", "--samples", "1"], 2, 1, id="n-cap+1"),
        pytest.param(["--n", "0"], 2, 1, id="n-0"),
        pytest.param(["--n", "-1"], 2, 1, id="n--1"),
        # the weight round(n p) reaches 0 and n inside [0, 1], and --w is gone
        pytest.param(["--n", "16", "--p", "0.97"], 0, 1, id="w-cap"),
        pytest.param(["--n", "16", "--p", "1.0001"], 2, 1, id="w-cap+1"),
        pytest.param(["--n", "16", "--p", "0.03"], 0, 1, id="w-0"),
        pytest.param(["--n", "16", "--p", "-0.0001"], 2, 1, id="w--1"),
        pytest.param(["--n", "16", "--w", "4"], 2, 1, id="w-flag"),
        # --p in [0, 1]
        pytest.param(["--n", "16", "--p", "1"], 0, 1, id="p-cap"),
        pytest.param(["--n", "16", "--p", "2"], 2, 1, id="p-cap+1"),
        pytest.param(["--n", "16", "--p", "0"], 0, 1, id="p-0"),
        pytest.param(["--n", "16", "--p", "-1"], 2, 1, id="p--1"),
        pytest.param(["--n", "16", "--p", "nan"], 2, 1, id="p-nan"),
        pytest.param(["--n", "16", "--p", "inf"], 2, 1, id="p-inf"),
        # --samples up to the work cap: 64 words of 8192 at the scaled cap
        pytest.param(["--n", "8192", "--p", "0.04", "--samples", "64"], 0, 5, id="samples-cap"),
        pytest.param(["--n", "8192", "--p", "0.04", "--samples", "65"], 2, 1,
                     id="samples-cap+1"),
        pytest.param(["--n", "16", "--samples", "0"], 2, 1, id="samples-0"),
        pytest.param(["--n", "16", "--samples", "-1"], 2, 1, id="samples--1"),
        # --samples around C(10, 3) = 120: drawn below it, every word once from it on
        pytest.param(["--n", "10", "--p", "0.3", "--samples", "119"], 0, 1, id="samples-C-1"),
        pytest.param(["--n", "10", "--p", "0.3", "--samples", "120"], 0, 1, id="samples-C"),
        pytest.param(["--n", "10", "--p", "0.3", "--samples", "121"], 0, 1, id="samples-C+1"),
    ])
    def test_roundtrip_flag_table(self, tmp_path, monkeypatch, argv, code, wall_s):
        # a run at the real cap takes minutes, so accepted rows run at a cap
        # scaled down to one word of 2^16 symbols
        monkeypatch.setattr(cli, "_MAX_WORK", 1 << 19)
        out = tmp_path / "out"
        started = time.monotonic()
        assert exit_code(["dm", "roundtrip", *argv, "--out-dir", str(out)]) == code
        assert time.monotonic() - started < wall_s
        if code:
            assert not out.exists()
            return
        payload = read_json(out / "dm-roundtrip.json")
        p = float(argv[argv.index("--p") + 1]) if "--p" in argv else 0.5
        assert payload["w"] == weight_for(payload["n"], p)
        words = math.comb(payload["n"], payload["w"])
        samples = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 10000
        assert payload["checked"] == min(samples, words)
        assert payload["exhaustive"] is (samples >= words)

    @pytest.mark.parametrize("argv, code, message", [
        # --n up to the matcher length cap: n = 10^7 used to spend minutes in one
        # exact binomial
        pytest.param(["--n", "65536"], 0, "", id="n-cap"),
        pytest.param(["--n", "65537"], 2, "65536", id="n-cap+1"),
        pytest.param(["--n", "0"], 2, "65536", id="n-0"),
        pytest.param(["--n", "-1"], 2, "65536", id="n--1"),
        # --p in [0, 1]
        pytest.param(["--p", "0"], 0, "", id="p-0"),
        pytest.param(["--p", "1"], 0, "", id="p-1"),
        pytest.param(["--p", "nan"], 2, "p must lie in [0, 1]", id="p-nan"),
        pytest.param(["--p", "-0.1"], 2, "p must lie in [0, 1]", id="p--0.1"),
        pytest.param(["--p", "1.1"], 2, "p must lie in [0, 1]", id="p-1.1"),
        # --ref-rate in (0, --ref-m), and above the rate loss
        *[pytest.param([f"--ref-rate={rate}"], 2, "--ref-rate must lie in (0, --ref-m)",
                       id=f"ref-rate-{rate}") for rate in ("0", "-1", "nan", "inf", "5")],
        pytest.param(["--ref-rate", "1e-6"], 2, "at least the operating rate",
                     id="ref-rate-1e-6"),
        # the reference profile is checked as any profile
        pytest.param(["--ref-m", "1"], 2, "m must be in [2, 16]", id="ref-m-1"),
        pytest.param(["--ref-m", "17"], 2, "m must be in [2, 16]", id="ref-m-17"),
        pytest.param(["--ref-probs", "0.1", "0.2", "0.3"], 2, "does not divide",
                     id="ref-probs-3"),
    ])
    def test_rate_loss_flag_table(self, tmp_path, capsys, argv, code, message):
        # each row's flags follow --n 1000 --p 0.14, and the last one wins; every
        # row, the cap included, takes well under a second
        out = tmp_path / "out"
        started = time.monotonic()
        assert exit_code(["dm", "rate-loss", "--n", "1000", "--p", "0.14", *argv,
                          "--out-dir", str(out)]) == code
        assert time.monotonic() - started < 1
        assert message in capsys.readouterr().err
        assert out.exists() is (code == 0)

    def test_bench_is_gone(self, tmp_path):
        # dm roundtrip reports the probe counts dm bench wrote to dm-bench.json
        out = tmp_path / "out"
        assert exit_code(["dm", "bench", "--n", "64", "--out-dir", str(out)]) == 2
        assert not out.exists()


class TestShapeCommands:
    def test_encode_decode_roundtrip(self, tmp_path):
        assert main(["shape", "encode", "--m", "3", "--probs", "0.04", "0.24", "--n", "256",
                     "--out-dir", str(tmp_path), "--seed", "9"]) == 0
        assert main(["shape", "decode", "--block", str(tmp_path / "shape-block.json"),
                     "--expect-info", str(tmp_path / "shape-info.txt"),
                     "--out-dir", str(tmp_path)]) == 0
        decoded = (tmp_path / "shape-decoded-info.txt").read_text().strip()
        expected = (tmp_path / "shape-info.txt").read_text().strip()
        assert decoded == expected

    def test_info_files_hold_bits_and_whitespace_only(self, tmp_path, capsys):
        # any other character was dropped, so "0120" was read as "010"
        encode = ["shape", "encode", "--m", "3", "--probs", "0.04", "0.24",
                  "--n", "64"]
        assert main([*encode, "--out-dir", str(tmp_path)]) == 0
        bits = (tmp_path / "shape-info.txt").read_text().strip()
        spaced, bad = tmp_path / "spaced.txt", tmp_path / "bad.txt"
        spaced.write_text(" ".join(bits[:10]) + "\n\t" + bits[10:] + "\n")
        bad.write_text(bits[:3] + "2" + bits[3:])
        block = str(tmp_path / "shape-block.json")
        again = tmp_path / "again"
        assert main([*encode, "--info-file", str(spaced), "--out-dir", str(again)]) == 0
        assert (again / "shape-block.json").read_text() == Path(block).read_text()
        decode = ["shape", "decode", "--block", block, "--expect-info"]
        assert main([*decode, str(spaced), "--out-dir", str(again)]) == 0
        refused = tmp_path / "refused"
        for argv in ([*encode, "--info-file", str(bad)], [*decode, str(bad)]):
            assert main([*argv, "--out-dir", str(refused)]) == 2
            assert "'2'" in capsys.readouterr().err
        assert not refused.exists()

    def test_encode_deterministic_in_seed(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            assert main(["shape", "encode", "--m", "3", "--probs", "0.04", "0.24", "--n", "128",
                         "--out-dir", str(d), "--seed", "4"]) == 0
        a = (a_dir / "shape-block.json").read_text()
        b = (b_dir / "shape-block.json").read_text()
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7])
    def test_block_dm_seed_gives_block_0_of_the_stream(self, tmp_path, seed):
        assert main(["shape", "encode", "--m", "4", "--probs", "0.1", "0.3", "--n", "130",
                     "--out-dir", str(tmp_path), "--seed", str(seed)]) == 0
        config = ShaperConfig(profile=ShapingProfile(m=4, probs=(0.1, 0.3)), n=130)
        expected = _uniform_info(np.random.default_rng(seed), config, 1)[0]
        info = (tmp_path / "shape-info.txt").read_text().strip()
        assert info == "".join(map(str, expected))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_ideal_seed_gives_block_0_of_the_stream(self, tmp_path, seed):
        assert main(["shape", "encode", "--mode", "ideal-sources", "--m", "4",
                     "--probs", "0.1", "0.3", "--n", "130", "--out-dir", str(tmp_path),
                     "--seed", str(seed)]) == 0
        config = ShaperConfig(profile=ShapingProfile(m=4, probs=(0.1, 0.3)), n=130,
                              rng_seed=seed, mode="ideal-sources")
        payload = read_json(tmp_path / "shape-block.json")
        assert payload["symbols"] == encode_block_ideal(config).symbols.tolist()

    def test_analyze_switch_table(self, tmp_path):
        assert main(["shape", "analyze-switch", "--probs", "0.04", "0.24", "--n", "256", "1024",
                     "--out-dir", str(tmp_path)]) == 0
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
        assert main(["simulate", "--m", "3", "--probs", "0.04", "0.24", "--n", "128",
                     "--blocks", "2", "--snr", "12", "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "simulate-report.json")
        assert len(payload) == 1
        assert payload[0]["snr_db"] == 12.0
        assert 0.0 <= payload[0]["symbol_error_rate"] <= 1.0

    def test_sweep_csv(self, tmp_path):
        assert main(["simulate", "--m", "3", "--probs", "0.04", "0.24", "--n", "128",
                     "--blocks", "2", "--snr", "8", "12", "16", "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "simulate-sweep.csv")
        assert rows[0] == ["snr_db", "ser", "mi_estimate"]
        assert len(rows) == 4
        sers = [float(r[1]) for r in rows[1:]]
        assert sers == sorted(sers, reverse=True)


class TestOptimizeCommand:
    def test_curve_outputs(self, tmp_path):
        assert main(["optimize", "--m", "3", "--P", "2", "--snr", "8", "10",
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "optimize-curve.csv")
        assert rows[0] == ["snr_db", "mi_bpcu", "p1", "p2"]
        assert len(rows) == 3
        results = read_json(tmp_path / "optimize-results.json")
        assert results[1]["profile"]["probs"][0] == pytest.approx(0.08, abs=0.02)

    def test_results_schema(self, tmp_path):
        assert main(["optimize", "--m", "3", "--P", "2", "--sigma", "1", "2",
                     "--out-dir", str(tmp_path)]) == 0
        for entry in read_json(tmp_path / "optimize-results.json"):
            assert set(entry) == {"profile", "mi_bpcu", "snr_db", "noise_std",
                                  "evaluations", "mode", "kkt_residual"}

    def test_step_flags_removed(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--coarse-step", "0.02", "--m", "3", "--P", "2", "--snr", "10",
                  "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2


# the two commands that take a two-source profile: their words, their other flags, the
# --n cap, and their own rows of test_two_source_flag_table. A row is --probs, --n, flags
# given later that win over the command's own, the exit code and a wall bound in seconds
TWO_SOURCE_COMMANDS = {
    "analyze-switch": (["shape", "analyze-switch"], ["--m", "5"], 1 << 20, [
        # --m in [2, 16], with M/4 = 2^(m - 2) at least P = 2
        pytest.param(["0.04", "0.24"], 2048, ["--m", "0"], 2, 1, id="m-0"),
        pytest.param(["0.04", "0.24"], 2048, ["--m", "-1"], 2, 1, id="m--1"),
        pytest.param(["0.04", "0.24"], 2048, ["--m", "2"], 2, 1, id="m-2"),
        pytest.param(["0.04", "0.24"], 2048, ["--m", "16"], 0, 5, id="m-cap"),
        pytest.param(["0.04", "0.24"], 2048, ["--m", "17"], 2, 1, id="m-cap+1"),
    ]),
    "budget": (["budget"], ["--m", "5", "--snr", "17"], 131072, [
        pytest.param(["0.04", "0.24"], 2048, ["--snr", "17"], 0, 5, id="snr-17"),
        pytest.param(["0.04", "0.24"], 2048, ["--snr", "nan"], 2, 1, id="snr-nan"),
        pytest.param(["0.04", "0.24"], 2048, ["--snr", "inf"], 2, 1, id="snr-inf"),
        # 1e15 dB has no positive finite noise level, and -1e300 dB no MI curve
        pytest.param(["0.04", "0.24"], 2048, ["--snr", "1e15"], 2, 1, id="snr-1e15"),
        pytest.param(["0.04", "0.24"], 2048, ["--snr=-1e300"], 2, 1, id="snr--1e300"),
        # the rate loss is at least the operating rate
        pytest.param(["0.04", "0.24"], 2048, ["--snr=-50"], 2, 1, id="snr--50"),
    ]),
}
# rows of both commands
TWO_SOURCE_ROWS = [
    # --probs takes exactly two values, each in [0, 1]
    pytest.param(["0.04"], 2048, [], 2, 1, id="probs-1"),
    pytest.param(["0.04", "0.24"], 2048, [], 0, 5, id="probs-2"),
    pytest.param(["0.04", "0.24", "0.1"], 2048, [], 2, 1, id="probs-3"),
    pytest.param(["0.04", "0.24", "0.1", "0.2"], 2048, [], 2, 1, id="probs-4"),
    pytest.param(["0", "0.24"], 2048, [], 0, 5, id="p-0"),
    pytest.param(["0.04", "1"], 2048, [], 0, 5, id="p-1"),
    pytest.param(["-0.1", "0.24"], 2048, [], 2, 1, id="p--0.1"),
    pytest.param(["0.04", "1.1"], 2048, [], 2, 1, id="p-1.1"),
    pytest.param(["nan", "0.24"], 2048, [], 2, 1, id="p-nan"),
    # --n up to the command's cap; budget's cap + 1 is odd, cap + 2 is not
    pytest.param(["0.04", "0.24"], "cap", [], 0, 5, id="n-cap"),
    pytest.param(["0.04", "0.24"], "cap+1", [], 2, 1, id="n-cap+1"),
    pytest.param(["0.04", "0.24"], "cap+2", [], 2, 1, id="n-cap+2"),
]


class TestBudgetCommand:
    def test_budget_json(self, tmp_path):
        assert main(["budget", "--m", "5", "--probs", "0.04", "0.24", "--n", "2048", "--snr", "17",
                     "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "budget.json")
        assert payload["total_db"] == pytest.approx(0.145, abs=0.02)

    @pytest.mark.parametrize("flags", [
        ["--m", "5", "--probs", "0", "0.24", "--n", "2048", "--snr", "17"],
        ["--m", "3", "--probs", "0.1", "0.3", "--n", "2", "--snr", "10"],
    ], ids=["p1=0", "n=2"])
    def test_budget_with_empty_matchers(self, tmp_path, flags):
        # a weight-0 matcher carries no bits; both used to exit 2
        assert main(["budget", *flags, "--out-dir", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "budget.json")
        assert payload["matcher_db"] >= 0.0

    def test_budget_with_a_rate_gain(self, tmp_path):
        # rate_loss(1024, 0.0006) is -0.0025, as round(n p) overshoots n p:
        # rate_loss_to_db refused it (exit 2)
        assert main(["budget", "--m", "5", "--probs", "0.0006", "0.0006", "--n", "2048",
                     "--snr", "17", "--out-dir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "budget.json")["matcher_db"] < 0.0

    @pytest.mark.parametrize("name, probs, n, flags, code, wall_s", [
        pytest.param(name, *row.values, id=f"{name}-{row.id}")
        for name, (*_, own) in TWO_SOURCE_COMMANDS.items()
        for row in [*TWO_SOURCE_ROWS, *own]
    ])
    def test_two_source_flag_table(self, tmp_path, capsys, name, probs, n, flags, code, wall_s):
        words, base, cap, _ = TWO_SOURCE_COMMANDS[name]
        n = {"cap": cap, "cap+1": cap + 1, "cap+2": cap + 2}.get(n, n)
        out = tmp_path / "out"
        started = time.monotonic()
        assert exit_code([*words, *base, "--probs", *probs, "--n", str(n), *flags,
                          "--out-dir", str(out)]) == code
        assert time.monotonic() - started < wall_s
        assert out.exists() is (code == 0)
        if len(probs) != 2:  # refused by the subcommand's parser, which names it
            prog = " ".join(["signshape", *words])
            assert f"{prog}: error: argument --probs: takes two values" in capsys.readouterr().err


def args_file(path, *args):
    """An @file argument naming path, which holds args one a line."""
    path.write_text("".join(f"{arg}\n" for arg in args))
    return f"@{path}"


class TestConfigMerge:
    # an argument file's lines are read where it stands, as if given there
    def test_config_supplies_defaults(self, tmp_path):
        cfg = args_file(tmp_path / "cfg.args", "--m", "3", "--probs", "0.04", "0.24")
        assert main(["shape", "encode", cfg, "--n", "64", "--out-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "shape-encode-manifest.json")
        assert manifest["params"]["m"] == 3
        # flags argparse requires are met by the file's, as they are on the line
        cfg = args_file(tmp_path / "cfg.args", "--m", "3", "--probs", "0.04", "0.24", "--n", "64")
        assert main(["simulate", cfg, "--blocks", "2", "--snr", "10",
                     "--out-dir", str(tmp_path)]) == 0
        params = read_json(tmp_path / "simulate-manifest.json")["params"]
        assert (params["m"], params["probs"], params["n"]) == (3, [0.04, 0.24], 64)

    def test_cli_overrides_config(self, tmp_path):
        # a flag after the file wins, as the last of two flags does
        cfg = args_file(tmp_path / "cfg.args", "--m", "3", "--probs", "0.04", "0.24", "--n", "64")
        assert main(["shape", "encode", cfg, "--n", "128", "--out-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "shape-encode-manifest.json")
        assert manifest["params"]["n"] == 128

    def test_config_seed_applies(self, tmp_path):
        cfg = args_file(tmp_path / "cfg.args", "--seed", "77",
                        "--out-dir", str(tmp_path / "from config"))  # a space needs no quoting
        argv = ["dm", "roundtrip", "--n", "64", "--p", "0.1", "--samples", "5", cfg]
        assert main(argv) == 0
        manifest = read_json(tmp_path / "from config" / "dm-roundtrip-manifest.json")
        assert manifest["seed"] == 77
        # explicit --seed and --out-dir after the file win over the file's
        assert main([*argv, "--seed", "5", "--out-dir", str(tmp_path / "explicit")]) == 0
        manifest = read_json(tmp_path / "explicit" / "dm-roundtrip-manifest.json")
        assert manifest["seed"] == 5
        assert manifest["params"]["out_dir"] == str(tmp_path / "explicit")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dm", "roundtrip", "--n", "64", "{cfg}", "--p", "0.1", "--samples", "5"],
            ["dm", "roundtrip", "--n", "64", "--p", "0.1", "--samples", "5", "{cfg}"],
        ],
        ids=["between-flags", "after-subcommand"],
    )
    def test_config_found_anywhere(self, tmp_path, argv):
        # a flag before the file loses: the file's --n comes later, so it wins
        cfg = args_file(tmp_path / "cfg.args", "--seed", "77", "--n", "32")
        argv = [a.format(cfg=cfg) for a in argv]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "dm-roundtrip-manifest.json")
        assert manifest["seed"] == 77
        assert manifest["params"]["n"] == 32

    def test_whole_command_in_a_file(self, tmp_path):
        # the subcommand words may come from the file too
        cfg = args_file(tmp_path / "cfg.args", "dm", "roundtrip", "--n", "16", "--samples", "5")
        assert main([cfg, "--out-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "dm-roundtrip-manifest.json")
        assert manifest["command"] == "dm-roundtrip"
        assert manifest["argv"] == [cfg, "--out-dir", str(tmp_path)]
        assert manifest["params"]["samples"] == 5

    def test_bad_config_is_2(self, tmp_path, capsys):
        # a line is one argument, so a JSON config is one unknown argument
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 8}\n')
        out = tmp_path / "out"
        assert exit_code(["dm", "roundtrip", "--n", "8", f"@{cfg}", "--out-dir", str(out)]) == 2
        assert 'unrecognized arguments: {"n": 8}' in capsys.readouterr().err
        assert not out.exists()


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        argv = ["dm", "roundtrip", "--n", "64", "--p", "0.1", "--samples", "10",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        manifest = read_json(tmp_path / "dm-roundtrip-manifest.json")
        assert set(manifest) == {
            "command", "argv", "params", "seed", "version", "outputs",
            "duration_s",
        }
        assert manifest["argv"] == argv  # main's own, not the process's
        assert manifest["params"]["samples"] == 10
        assert manifest["duration_s"] >= 0


def exit_code(argv):
    """main's exit code, also where argparse itself exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# a quick run of each of the eight subcommands, keyed by its manifest name
SUBCOMMANDS = {
    "optimize": ["optimize", "--m", "3", "--P", "1", "--snr", "8"],
    "dm-roundtrip": ["dm", "roundtrip", "--n", "16", "--p", "0.25", "--samples", "5"],
    "dm-rate-loss": ["dm", "rate-loss", "--n", "64", "--p", "0.2"],
    "shape-encode": ["shape", "encode", "--m", "3", "--probs", "0.04", "0.24",
                     "--n", "64"],
    "shape-decode": ["shape", "decode", "--block", "{block}"],
    "shape-analyze-switch": ["shape", "analyze-switch", "--probs", "0.04", "0.24",
                             "--n", "64"],
    "simulate": ["simulate", "--m", "3", "--probs", "0.04", "0.24", "--n", "64",
                 "--blocks", "2", "--snr", "10"],
    "budget": ["budget", "--m", "5", "--probs", "0.04", "0.24", "--n", "512",
               "--snr", "17"],
}

# the commands that write both formats: (JSON file, CSV file)
BOTH_FORMATS = {
    "optimize": ("optimize-results.json", "optimize-curve.csv"),
    "dm-rate-loss": ("dm-rate-loss.json", "dm-rate-loss.csv"),
    "shape-analyze-switch": ("switch-analysis.json", "switch-analysis.csv"),
    "simulate": ("simulate-report.json", "simulate-sweep.csv"),
}


@pytest.fixture
def block_file(tmp_path):
    out = tmp_path / "encoded"
    assert main([*SUBCOMMANDS["shape-encode"], "--out-dir", str(out)]) == 0
    return out / "shape-block.json"


class TestRunLifecycle:
    @pytest.mark.parametrize("suffix", [".csv", ".json"], ids=["csv", "json"])
    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_every_subcommand_keeps_a_result(self, tmp_path, block_file, name, suffix):
        # every subcommand keeps a result listed in its manifest; only table
        # commands write a CSV, and each kept file of the format reads back
        out = tmp_path / "out"
        argv = [arg.format(block=block_file) for arg in SUBCOMMANDS[name]]
        assert main([*argv, "--out-dir", str(out)]) == 0
        manifest = read_json(out / f"{name}-manifest.json")
        assert manifest["command"] == name
        results = sorted(p.name for p in out.iterdir() if p.name != f"{name}-manifest.json")
        assert results
        assert sorted(Path(p).name for p in manifest["outputs"]) == results
        kept = [r for r in results if r.endswith(suffix)]
        if name in BOTH_FORMATS:
            assert kept == [f for f in BOTH_FORMATS[name] if f.endswith(suffix)]
        elif suffix == ".csv":
            assert kept == []
        for result in kept:
            (read_json if suffix == ".json" else read_csv)(out / result)

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--csv"], ["--json", "--csv"]],
                             ids=["neither", "json", "csv", "both"])
    @pytest.mark.parametrize("name", list(BOTH_FORMATS))
    def test_format_flags_select(self, tmp_path, capsys, name, flags):
        # --json and --csv are gone: without them a table command writes both
        # files, and with either the run is refused before its out-dir is made
        out = tmp_path / "out"
        code = exit_code([*SUBCOMMANDS[name], *flags, "--out-dir", str(out)])
        if flags:
            assert code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            assert {p.name for p in out.iterdir()} == {f"{name}-manifest.json",
                                                       *BOTH_FORMATS[name]}

    def test_exhaustive_is_gone(self, tmp_path, capsys):
        # --samples covering the codebook checks every word, as --exhaustive did
        out = tmp_path / "out"
        assert exit_code(["dm", "roundtrip", "--n", "10", "--p", "0.3", "--exhaustive",
                          "--out-dir", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_config_is_gone(self, tmp_path, capsys):
        # an @file reads flags as they are written, where --config took JSON
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"samples": 5}')
        out = tmp_path / "out"
        assert exit_code(["dm", "roundtrip", "--n", "10", "--config", str(cfg),
                          "--out-dir", str(out)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_every_option_takes_a_value(self):
        # an on/off option doubles the configurations to test; -h is the one kept
        top, leaves = cli.build_parser()
        parsers, switches = [top], []
        for parser in parsers:  # grows by each subcommand parser reached
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                elif action.nargs == 0 and action.option_strings != ["-h", "--help"]:
                    switches.append((parser.prog, *action.option_strings))
        assert all(leaf in parsers for leaf in leaves)
        assert switches == []

    def test_single_point_simulate_writes_its_sweep_csv(self, tmp_path):
        assert main([*SUBCOMMANDS["simulate"], "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "simulate-sweep.csv")
        report = read_json(tmp_path / "simulate-report.json")
        assert rows[0] == ["snr_db", "ser", "mi_estimate"]
        assert [float(v) for v in rows[1]] == [
            10.0, report[0]["symbol_error_rate"], report[0]["mi_estimate"]
        ]

    @pytest.mark.parametrize("command", [
        ["shape", "decode", "--block", "missing.json"],
        ["dm", "roundtrip", "--n", "64", "--samples", "0"],
    ], ids=["missing-block", "no-samples"])
    def test_refused_run_creates_no_out_dir(self, tmp_path, command):
        out = tmp_path / "not" / "yet"
        assert main([*command, "--out-dir", str(out)]) == 2
        assert not (tmp_path / "not").exists()

    def test_failed_decode_check_creates_no_out_dir(self, tmp_path, block_file):
        # the decoded bits used to be written before --expect-info was checked
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("0" * len((block_file.parent / "shape-info.txt").read_text().strip()))
        out = tmp_path / "out"
        assert main(["shape", "decode", "--block", str(block_file), "--expect-info", str(wrong),
                     "--out-dir", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("name, before, after, refused", [
        ("shape-encode", [], ["--P", "2"], "--P 2"),
        ("simulate", [], ["--P", "2"], "--P 2"),
        ("shape-analyze-switch", [], ["--p1", "0.04"], "--p1 0.04"),
        ("shape-analyze-switch", [], ["--p2", "0.24"], "--p2 0.24"),
        ("budget", [], ["--p1", "0.04"], "--p1 0.04"),
        ("budget", [], ["--p2", "0.24"], "--p2 0.24"),
        ("dm-roundtrip", ["--seed", "7"], [], "'7'"),
        ("dm-roundtrip", ["--out-dir", "{out}"], [], "'{out}'"),
        # an argument file of flags before the words, read as those flags
        ("dm-roundtrip", ["{cfg}"], [], "'5'"),
    ], ids=["encode-P", "simulate-P", "analyze-switch-p1", "analyze-switch-p2", "budget-p1",
            "budget-p2", "seed-first", "out-dir-first", "config-first"])
    def test_second_spellings_are_gone(self, tmp_path, capsys, name, before, after, refused):
        # P is the number of --probs and a two-source profile is two --probs: the
        # flags that repeated them are refused (dm roundtrip --w: the flag table).
        # Every flag follows the subcommand words: the top parser takes none, and
        # reads a flag's value as the subcommand
        out = tmp_path / "out"
        cfg = args_file(tmp_path / "cfg.args", "--samples", "5")
        before = [arg.format(out=out, cfg=cfg) for arg in before]
        assert exit_code([*before, *SUBCOMMANDS[name], *after, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        message = "unrecognized arguments: " if after else "argument command: invalid choice: "
        assert message + refused.format(out=out) in err
        assert not out.exists()

    def test_budget_m_has_no_default(self, tmp_path, capsys):
        # analyze-switch defaults --m to 5; budget must not
        code = exit_code(["budget", "--probs", "0.04", "0.24", "--n", "512", "--snr", "17",
                          "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--m" in capsys.readouterr().err


class TestConfigParsedLikeFlags:
    # an argument file's values are parsed and checked as the same flags on the line
    def test_scalar_for_a_list_flag(self, tmp_path):
        # both used to exit 1 on a TypeError traceback
        cfg = args_file(tmp_path / "cfg.args", "--m", "3", "--probs", "0.2")
        assert main(["shape", "encode", "--n", "64", "--out-dir", str(tmp_path), cfg]) == 0
        assert read_json(tmp_path / "shape-encode-manifest.json")["params"]["probs"] == [0.2]
        cfg = args_file(tmp_path / "cfg.args", "--snr", "17")
        assert main(["optimize", "--m", "3", "--P", "1", "--out-dir", str(tmp_path), cfg]) == 0
        (result,) = read_json(tmp_path / "optimize-results.json")
        assert result["snr_db"] == 17.0

    def test_negative_exponent_value(self, tmp_path):
        # "--snr -1e-05" reads as two flags, in a file as on the line; "=" keeps it one
        cfg = args_file(tmp_path / "cfg.args", "--snr=-1e-05")
        assert main(["optimize", "--m", "3", "--P", "1", "--out-dir", str(tmp_path), cfg]) == 0
        assert read_json(tmp_path / "optimize-results.json")[0]["snr_db"] == -1e-05

    @pytest.mark.parametrize("lines, command, message", [
        (["--n", "64", "128"], ["dm", "roundtrip"], "unrecognized arguments: 128"),
        (["--mode", "bogus"], ["simulate", "--m", "3", "--probs", "0.2", "--n", "64",
                               "--snr", "10"], "invalid choice: 'bogus'"),
        # used to run the default samples
        (["--sampels", "5"], ["dm", "roundtrip", "--n", "64"],
         "unrecognized arguments: --sampels"),
        # a flag of another command
        (["--block", "x.json"], ["dm", "roundtrip", "--n", "64"],
         "unrecognized arguments: --block"),
        (["--samples", "many"], ["dm", "roundtrip", "--n", "64"], "invalid int value: 'many'"),
        # the removed switches
        (["--exhaustive", "--json", "--csv"], ["dm", "roundtrip", "--n", "10", "--p", "0.3"],
         "unrecognized arguments: --exhaustive --json --csv"),
        (["--seed", "1.5"], ["dm", "roundtrip", "--n", "64"], "invalid int value: '1.5'"),
        # the removed second spellings of P, a two-source profile and a weight
        (["--P", "2"], SUBCOMMANDS["shape-encode"], "unrecognized arguments: --P 2"),
        (["--P", "2"], SUBCOMMANDS["simulate"], "unrecognized arguments: --P 2"),
        (["--p1", "0.04", "--p2", "0.24"], SUBCOMMANDS["shape-analyze-switch"],
         "unrecognized arguments: --p1 0.04 --p2 0.24"),
        (["--p1", "0.04", "--p2", "0.24"], SUBCOMMANDS["budget"],
         "unrecognized arguments: --p1 0.04 --p2 0.24"),
        (["--w", "4"], SUBCOMMANDS["dm-roundtrip"], "unrecognized arguments: --w 4"),
    ], ids=["list-for-scalar", "bad-choice", "unknown-key", "foreign-key", "bad-int",
            "bad-switch", "float-seed", "P-encode", "P-simulate", "p1-p2-analyze-switch",
            "p1-p2-budget", "w-roundtrip"])
    def test_bad_value_is_2(self, tmp_path, capsys, lines, command, message):
        out = tmp_path / "out"
        cfg = args_file(tmp_path / "cfg.args", *lines)
        assert exit_code([*command, cfg, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestLengthCaps:
    @pytest.mark.parametrize("command", [
        ["budget", "--m", "5", "--probs", "0.04", "0.24", "--n", "131074",
         "--snr", "17"],
    ], ids=["budget"])  # dm rate-loss: TestDmCommands::test_rate_loss_flag_table
    def test_matcher_length_cap_is_2(self, tmp_path, capsys, command):
        assert main([*command, "--out-dir", str(tmp_path)]) == 2
        assert "65536" in capsys.readouterr().err

    @staticmethod
    def run_capped(tmp_path, *command):
        """The CLI in a child whose address space is capped at 2 GB, so a
        missing check fails with MemoryError (exit 1) instead of taking the
        memory."""
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        src = str(Path(signshape.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        return subprocess.run(
            [sys.executable, "-m", "signshape", *command, "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit,
        )

    def test_switch_analysis_cap_is_2_before_allocating(self, tmp_path):
        # n = 10^9 would need about 11 GB
        result = self.run_capped(tmp_path, "shape", "analyze-switch", "--probs", "0.04",
                                 "0.24", "--n", str(10**9))
        assert result.returncode == 2, result.stderr
        assert "1048576" in result.stderr

    @pytest.mark.parametrize("mode", ["ideal-sources", "block-dm"])
    def test_shape_length_cap_is_2_before_allocating(self, tmp_path, mode):
        # ideal-sources at n = 4 * 10^9 asked for 7.45 GiB; both modes now
        # refuse n / P above the matcher length cap when the config is built
        result = self.run_capped(tmp_path, "shape", "encode", "--mode", mode, "--m", "3",
                                 "--probs", "0.2", "--n", str(4 * 10**9))
        assert result.returncode == 2, result.stderr
        assert "65536" in result.stderr
