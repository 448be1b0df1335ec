"""Command line front end.

Subcommands: optimize, dm {roundtrip, rate-loss, bench},
shape {encode, decode, analyze-switch}, simulate, budget.

Every run writes its outputs into --out-dir plus a JSON manifest recording
the command, parameters, seed, package version, output paths, and wall
clock time. Tabular results go to CSV, structured ones to JSON; --json or
--csv restricts writing to one of the two. A --config file (JSON object
keyed by flag destination names) supplies defaults that explicit flags
override. Exit codes: 0 success, 2 usage or parameter problems, 3
integrity failures, 4 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .budget import loss_budget
from .constellation import (
    ShapingProfile,
    induced_distribution,
    profile_to_dict,
)
from .enumdm import (
    dm_code,
    dm_complexity_bound,
    rank,
    rate_loss,
    unrank,
    unrank_counted,
    weight_for,
)
from .errors import (
    IntegrityError,
    NumericalError,
    ParameterError,
    RangeError,
    ShapingError,
    WeightError,
)
from .midist import (
    mi_curve_for_profile,
    optimize_profile,
    rate_loss_to_db,
    sigma_for_snr,
    snr_db_for,
)
from .shaper import (
    ShaperConfig,
    block_from_json,
    block_to_json,
    decode_block,
    effective_probabilities,
    encode_block_dm,
    encode_block_ideal,
    switch_energy_loss,
    switch_excess_expectation,
)
from .simulate import SimConfig, run as run_simulation

_USAGE_EXIT = 2
_INTEGRITY_EXIT = 3
_NUMERICAL_EXIT = 4


def _write_text(path: Path, text: str) -> None:
    # temp file in the same directory so the final rename is atomic
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buffer.getvalue())


def _random_code_index(rng: np.random.Generator, num_words: int) -> int:
    """Uniform index below num_words, which may exceed the int64 range."""
    if num_words <= 1:
        return 0
    bits = int(num_words - 1).bit_length()
    while True:
        value = 0
        for chunk in rng.integers(0, 1 << 32, size=(bits + 31) // 32, dtype=np.uint64):
            value = (value << 32) | int(chunk)
        value &= (1 << bits) - 1
        if value < num_words:
            return value


class _Run:
    """Collects output paths and writes the manifest at the end."""

    def __init__(self, args: argparse.Namespace, name: str):
        self.args = args
        self.name = name
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.started = time.monotonic()
        self.want_json = args.json or not args.csv
        self.want_csv = args.csv or not args.json

    def path(self, filename: str) -> Path:
        p = self.out_dir / filename
        self.outputs.append(str(p))
        return p

    def emit_json(self, filename: str, payload) -> None:
        if self.want_json:
            _write_json(self.path(filename), payload)

    def emit_csv(self, filename: str, header: list[str], rows: list[tuple]) -> None:
        if self.want_csv:
            _write_csv(self.path(filename), header, rows)

    def finish(self) -> None:
        params = {
            k: v
            for k, v in sorted(vars(self.args).items())
            if k != "func" and not k.startswith("_")
        }
        manifest = {
            "command": self.name,
            "argv": sys.argv[1:],
            "params": params,
            "seed": self.args.seed,
            "version": __version__,
            "outputs": list(self.outputs),
            "duration_s": round(time.monotonic() - self.started, 6),
        }
        _write_json(self.out_dir / f"{self.name}-manifest.json", manifest)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ParameterError(f"missing required option(s): {flags}")


# Most symbols one `dm roundtrip` or `dm bench` (--samples x n) or one
# `simulate` SNR point (--blocks x n) may work through: a few minutes at the
# 1-5 us per symbol these commands take on one x86-64 core.
_MAX_WORK = 1 << 27


def _require_work(flag: str, count: int, n: int) -> None:
    if count < 1:
        raise ParameterError(f"--{flag} must be at least 1, got {count}")
    if count * n > _MAX_WORK:
        raise ParameterError(
            f"--{flag} {count} at n = {n} is {count * n} symbols, above the "
            f"{_MAX_WORK} one run may take"
        )


def _pick_one(args: argparse.Namespace, first: str, second: str) -> str:
    a = getattr(args, first, None)
    b = getattr(args, second, None)
    if (a is None) == (b is None):
        raise ParameterError(f"give exactly one of --{first}/--{second}")
    return first if a is not None else second


def _profile_from_args(args: argparse.Namespace) -> ShapingProfile:
    _require(args, "m", "P", "probs")
    probs = tuple(float(p) for p in args.probs)
    if len(probs) != args.P:
        raise ParameterError(f"--P {args.P} but {len(probs)} probabilities given")
    return ShapingProfile(m=args.m, probs=probs)


def _cmd_optimize(args: argparse.Namespace) -> int:
    _require(args, "m", "P")
    choice = _pick_one(args, "snr", "sigma")
    runner = _Run(args, "optimize")
    key = "snr_db" if choice == "snr" else "noise_std"
    results = []
    warm = None
    for value in getattr(args, choice):
        result = optimize_profile(
            args.m,
            args.P,
            warm_start=warm,
            **{key: float(value)},
        )
        warm = result.profile.probs
        results.append(result)
        probs = ", ".join(f"{p:.4f}" for p in result.profile.probs)
        print(
            f"snr {result.snr_db:8.3f} dB  mi {result.mi_bpcu:.6f} bpcu  "
            f"probs ({probs})  [{result.evaluations} evaluations, "
            f"kkt residual {result.kkt_residual:.1e}]"
        )
    header = ["snr_db", "mi_bpcu"] + [f"p{i + 1}" for i in range(args.P)]
    rows = [
        (r.snr_db, r.mi_bpcu, *[float(p) for p in r.profile.probs]) for r in results
    ]
    runner.emit_csv("optimize-curve.csv", header, rows)
    runner.emit_json(
        "optimize-results.json",
        [
            {**dataclasses.asdict(r), "profile": profile_to_dict(r.profile)}
            for r in results
        ],
    )
    runner.finish()
    return 0


def _cmd_dm_roundtrip(args: argparse.Namespace) -> int:
    _require(args, "n")
    _require_work("samples", args.samples, args.n)
    runner = _Run(args, "dm-roundtrip")
    w = args.w if args.w is not None else weight_for(args.n, args.p)
    code = dm_code(args.n, w)
    if args.exhaustive:
        if code.num_words > 2_000_000:
            raise ParameterError(
                f"C({args.n},{w}) = {code.num_words} too large for --exhaustive"
            )
        indices = range(code.num_words)
        checked = code.num_words
    else:
        rng = np.random.default_rng(args.seed)
        checked = args.samples
        indices = [
            _random_code_index(rng, int(code.num_words)) for _ in range(checked)
        ]
    for index in indices:
        word = unrank(int(index), code)
        if int(word.sum()) != code.w:
            raise IntegrityError(f"index {index} produced weight {int(word.sum())}")
        back = rank(word, code)
        if back != index:
            raise IntegrityError(f"rank(unrank({index})) = {back}")
    payload = {
        "n": code.n,
        "w": code.w,
        "k": code.k,
        "num_words": str(code.num_words),
        "checked": checked,
        "exhaustive": bool(args.exhaustive),
        "ok": True,
    }
    runner.emit_json("dm-roundtrip.json", payload)
    print(f"roundtrip ok: n={code.n} w={code.w} k={code.k} checked={checked}")
    runner.finish()
    return 0


def _reference_curve(args: argparse.Namespace):
    profile = ShapingProfile(m=args.ref_m, probs=tuple(args.ref_probs))
    if not 0 < args.ref_rate < args.ref_m:
        raise ParameterError(f"--ref-rate must lie in (0, --ref-m), got {args.ref_rate}")
    # center the curve window on the capacity SNR for the operating rate
    center = 10.0 * math.log10(2.0 ** (2.0 * args.ref_rate) - 1.0)
    grid = np.arange(center - 3.0, center + 3.0 + 1e-9, 0.25)
    return mi_curve_for_profile(profile, grid)


def _cmd_dm_rate_loss(args: argparse.Namespace) -> int:
    _require(args, "n", "p")
    runner = _Run(args, "dm-rate-loss")
    curve = _reference_curve(args)
    rows = []
    for n in args.n:
        loss = rate_loss(n, args.p)
        level_db = rate_loss_to_db(loss, curve, args.ref_rate)
        w = weight_for(n, args.p)
        k = math.comb(n, w).bit_length() - 1
        rows.append((n, w, k, loss, level_db))
        print(f"n={n:6d}  w={w:6d}  rate loss {loss:.6f} bpcu  {level_db:.4f} dB")
    header = ["n", "w", "k", "rate_loss_bpcu", "loss_db"]
    runner.emit_csv("dm-rate-loss.csv", header, rows)
    runner.emit_json(
        "dm-rate-loss.json",
        [dict(zip(header, row)) for row in rows],
    )
    runner.finish()
    return 0


def _cmd_dm_bench(args: argparse.Namespace) -> int:
    _require(args, "n")
    _require_work("samples", args.samples, args.n)
    runner = _Run(args, "dm-bench")
    w = args.w if args.w is not None else weight_for(args.n, args.p)
    code = dm_code(args.n, w)
    rng = np.random.default_rng(args.seed)
    total_comparisons = 0
    max_comparisons = 0
    for _ in range(args.samples):
        index = _random_code_index(rng, int(code.num_words))
        _, comparisons = unrank_counted(index, code)
        total_comparisons += comparisons
        max_comparisons = max(max_comparisons, comparisons)
    realized_p = code.w / code.n
    bound_per_bit = dm_complexity_bound(code.n, realized_p)
    mean_per_bit = total_comparisons / (args.samples * code.n)
    payload = {
        "n": code.n,
        "w": code.w,
        "k": code.k,
        "samples": args.samples,
        "mean_comparisons_per_bit": mean_per_bit,
        "max_comparisons_per_bit": max_comparisons / code.n,
        "bound_per_bit": bound_per_bit,
        # the bound holds word by word, so the costliest word is checked
        "within_bound": max_comparisons <= bound_per_bit * code.n,
    }
    runner.emit_json("dm-bench.json", payload)
    print(
        f"bench: n={code.n} w={code.w} mean {mean_per_bit:.4f} "
        f"max {payload['max_comparisons_per_bit']:.4f} bound {bound_per_bit:.4f} "
        f"comparisons/bit"
    )
    runner.finish()
    return 0


def _read_bits_file(path: str) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    bits = [c for c in text if c in "01"]
    if not bits:
        raise ParameterError(f"no 0/1 characters found in {path}")
    return np.array([int(c) for c in bits], dtype=np.uint8)


def _cmd_shape_encode(args: argparse.Namespace) -> int:
    _require(args, "n")
    runner = _Run(args, "shape-encode")
    profile = _profile_from_args(args)
    config = ShaperConfig(
        profile=profile, n=args.n, rng_seed=args.seed, mode=args.mode
    )
    if config.mode == "block-dm":
        if args.info_file:
            info = _read_bits_file(args.info_file)
        else:
            rng = np.random.default_rng(args.seed)
            info = rng.integers(0, 2, size=config.info_length, dtype=np.uint8)
        block = encode_block_dm(config, info)
        info_path = runner.path("shape-info.txt")
        _write_text(info_path, "".join(str(int(b)) for b in info) + "\n")
        print(f"info bits: {info.size} -> {info_path}")
    else:
        block = encode_block_ideal(config)
    block_path = runner.path("shape-block.json")
    _write_text(block_path, block_to_json(block, config) + "\n")
    energy = float(np.mean(np.asarray(block.symbols, dtype=float) ** 2))
    print(
        f"encoded {config.n} symbols, mode {config.mode}, "
        f"overflow {block.overflow_count}, mean energy {energy:.3f} -> {block_path}"
    )
    runner.finish()
    return 0


def _cmd_shape_decode(args: argparse.Namespace) -> int:
    _require(args, "block")
    runner = _Run(args, "shape-decode")
    block, config = block_from_json(Path(args.block).read_text(encoding="utf-8"))
    info = decode_block(block, config)
    out = runner.path("shape-decoded-info.txt")
    _write_text(out, "".join(str(int(b)) for b in info) + "\n")
    print(f"decoded {info.size} info bits -> {out}")
    if args.expect_info:
        expected = _read_bits_file(args.expect_info)
        if expected.size != info.size or np.any(expected != info):
            raise IntegrityError("decoded bits do not match --expect-info")
        print("decoded bits match the expected info")
    runner.finish()
    return 0


def _cmd_shape_analyze_switch(args: argparse.Namespace) -> int:
    _require(args, "p1", "p2", "n")
    runner = _Run(args, "shape-analyze-switch")
    profile = ShapingProfile(m=args.m, probs=(args.p1, args.p2))
    rows = []
    for n in args.n:
        delta_db = switch_energy_loss(profile, n)  # rejects P != 2 first
        epsilon = switch_excess_expectation(n)
        p1_eff, p2_eff = effective_probabilities(*profile.probs, n)
        rows.append((n, epsilon, p1_eff, p2_eff, delta_db))
        print(
            f"n={n:6d}  eps={epsilon:10.4f}  "
            f"p_eff=({p1_eff:.6f}, {p2_eff:.6f})  delta={delta_db:.5f} dB"
        )
    header = ["n", "epsilon", "p1_eff", "p2_eff", "delta_db"]
    runner.emit_csv("switch-analysis.csv", header, rows)
    runner.emit_json("switch-analysis.json", [dict(zip(header, r)) for r in rows])
    runner.finish()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "n")
    _require_work("blocks", args.blocks, args.n)
    choice = _pick_one(args, "snr", "sigma")
    runner = _Run(args, "simulate")
    profile = _profile_from_args(args)
    shaper_cfg = ShaperConfig(
        profile=profile, n=args.n, rng_seed=args.seed, mode=args.mode
    )
    energy = induced_distribution(profile).average_energy
    if choice == "snr":
        sigmas = [(float(s), sigma_for_snr(energy, float(s))) for s in args.snr]
    else:
        sigmas = [
            (snr_db_for(energy, s) if s > 0 else None, float(s)) for s in args.sigma
        ]
    reports = []
    # every config is checked before the first run
    sims = [
        SimConfig(shaper=shaper_cfg, noise_std=sigma, num_blocks=args.blocks, rng_seed=args.seed)
        for _, sigma in sigmas
    ]
    for (snr_db, sigma), sim in zip(sigmas, sims):
        report = run_simulation(sim)
        reports.append((snr_db, sigma, report))
        label = f"{snr_db:.2f} dB" if snr_db is not None else f"sigma={sigma}"
        print(
            f"{label}: ser {report.symbol_error_rate:.3e}  "
            f"shaping-bit errors {report.shaping_bit_error_rate:.3e}  "
            f"mi {report.mi_estimate:.4f} bpcu  "
            f"overflow mean {report.overflow_mean:.2f}"
        )
    runner.emit_json(
        "simulate-report.json",
        [
            {"snr_db": snr_db, "noise_std": sigma, **dataclasses.asdict(report)}
            for snr_db, sigma, report in reports
        ],
    )
    if len(reports) > 1:
        runner.emit_csv(
            "simulate-sweep.csv",
            ["snr_db", "ser", "mi_estimate"],
            [
                (snr_db, report.symbol_error_rate, report.mi_estimate)
                for snr_db, _, report in reports
            ],
        )
    runner.finish()
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    _require(args, "m", "p1", "p2", "n", "snr")
    runner = _Run(args, "budget")
    report = loss_budget(
        args.m, args.p1, args.p2, args.n, args.snr, asymptotic=args.asymptotic
    )
    runner.emit_json("budget.json", dataclasses.asdict(report))
    print(
        f"rate {report.operating_rate_bpcu:.4f} bpcu at {report.snr_db:.2f} dB: "
        f"quantization {report.quantization_db:.4f} dB + "
        f"matcher {report.matcher_db:.4f} dB + "
        f"switch {report.switch_db:.4f} dB = {report.total_db:.4f} dB"
    )
    runner.finish()
    return 0


_COMMON_DESTS = ("seed", "out_dir", "json", "csv", "config")


def _common_parent(real_defaults: bool) -> argparse.ArgumentParser:
    # Shared by the top parser and every leaf subcommand so the flags are
    # accepted on either side of the subcommand name. Leaf copies suppress
    # their defaults: subparsers parse into a fresh namespace whose contents
    # overwrite the outer one, which would clobber flags given up front.
    default = (lambda v: v) if real_defaults else (lambda v: argparse.SUPPRESS)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=default(0), help="run seed")
    common.add_argument("--out-dir", default=default("."), help="output directory")
    common.add_argument(
        "--json", action="store_true", default=default(False),
        help="write only JSON outputs",
    )
    common.add_argument(
        "--csv", action="store_true", default=default(False),
        help="write only CSV outputs",
    )
    common.add_argument(
        "--config", default=default(None), help="JSON file of default flag values"
    )
    return common


def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    common = _common_parent(real_defaults=False)
    top = argparse.ArgumentParser(
        prog="signshape",
        description="Sign-bit probabilistic shaping toolkit for ASK over AWGN",
        parents=[_common_parent(real_defaults=True)],
    )
    sub = top.add_subparsers(dest="command", required=True)
    all_parsers: list[argparse.ArgumentParser] = [top]

    # "required" flags default to None and are checked by _require after the
    # config merge, so a --config file can legitimately supply them
    opt = sub.add_parser("optimize", parents=[common], help="optimize shaping profiles over SNR")
    opt.add_argument("--m", type=int)
    opt.add_argument("--P", type=int)
    group = opt.add_mutually_exclusive_group()
    group.add_argument("--snr", type=float, nargs="+", help="SNR grid in dB")
    group.add_argument("--sigma", type=float, nargs="+", help="noise std grid")
    opt.set_defaults(func=_cmd_optimize)
    all_parsers.append(opt)

    dm = sub.add_parser("dm", help="fixed-weight matcher tools")
    dm_sub = dm.add_subparsers(dest="dm_command", required=True)

    rt = dm_sub.add_parser("roundtrip", parents=[common], help="verify rank/unrank bijectivity")
    rt.add_argument("--n", type=int)
    rt.add_argument("--w", type=int, default=None)
    rt.add_argument("--p", type=float, default=0.5)
    rt.add_argument("--exhaustive", action="store_true")
    rt.add_argument("--samples", type=int, default=10000)
    rt.set_defaults(func=_cmd_dm_roundtrip)
    all_parsers.append(rt)

    rl = dm_sub.add_parser("rate-loss", parents=[common], help="finite-length rate loss table")
    rl.add_argument("--n", type=int, nargs="+")
    rl.add_argument("--p", type=float)
    rl.add_argument("--ref-m", type=int, default=5)
    rl.add_argument("--ref-probs", type=float, nargs="+", default=[0.04, 0.24])
    rl.add_argument("--ref-rate", type=float, default=3.0)
    rl.set_defaults(func=_cmd_dm_rate_loss)
    all_parsers.append(rl)

    bench = dm_sub.add_parser("bench", parents=[common], help="measure unranking comparisons")
    bench.add_argument("--n", type=int)
    bench.add_argument("--w", type=int, default=None)
    bench.add_argument("--p", type=float, default=0.5)
    bench.add_argument("--samples", type=int, default=1000)
    bench.set_defaults(func=_cmd_dm_bench)
    all_parsers.append(bench)

    shape = sub.add_parser("shape", help="encode, decode, and switch analysis")
    shape_sub = shape.add_subparsers(dest="shape_command", required=True)

    enc = shape_sub.add_parser("encode", parents=[common], help="encode one block")
    enc.add_argument("--m", type=int)
    enc.add_argument("--P", type=int)
    enc.add_argument("--probs", type=float, nargs="+")
    enc.add_argument("--n", type=int)
    enc.add_argument("--mode", choices=("block-dm", "ideal-sources"), default="block-dm")
    enc.add_argument("--info-file", default=None)
    enc.set_defaults(func=_cmd_shape_encode)
    all_parsers.append(enc)

    dec = shape_sub.add_parser("decode", parents=[common], help="decode a block file")
    dec.add_argument("--block")
    dec.add_argument("--expect-info", default=None)
    dec.set_defaults(func=_cmd_shape_decode)
    all_parsers.append(dec)

    ana = shape_sub.add_parser("analyze-switch", parents=[common], help="overflow impact table")
    ana.add_argument("--p1", type=float)
    ana.add_argument("--p2", type=float)
    ana.add_argument("--n", type=int, nargs="+")
    ana.add_argument("--m", type=int, default=5)
    ana.set_defaults(func=_cmd_shape_analyze_switch)
    all_parsers.append(ana)

    sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo AWGN simulation")
    sim.add_argument("--m", type=int)
    sim.add_argument("--P", type=int)
    sim.add_argument("--probs", type=float, nargs="+")
    sim.add_argument("--n", type=int)
    sim.add_argument("--blocks", type=int, default=16)
    sim_group = sim.add_mutually_exclusive_group()
    sim_group.add_argument("--snr", type=float, nargs="+")
    sim_group.add_argument("--sigma", type=float, nargs="+")
    sim.add_argument("--mode", choices=("block-dm", "ideal-sources"), default="block-dm")
    sim.set_defaults(func=_cmd_simulate)
    all_parsers.append(sim)

    bud = sub.add_parser("budget", parents=[common], help="loss budget at an operating point")
    bud.add_argument("--m", type=int)
    bud.add_argument("--p1", type=float)
    bud.add_argument("--p2", type=float)
    bud.add_argument("--n", type=int)
    bud.add_argument("--snr", type=float)
    bud.add_argument("--asymptotic", action="store_true")
    bud.set_defaults(func=_cmd_budget)
    all_parsers.append(bud)

    return top, all_parsers


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    top, all_parsers = build_parser()
    # a first parse finds --config, however abbreviated or placed; its
    # values become defaults for the real parse, so explicit flags win
    config_path = top.parse_args(argv).config
    if config_path:
        try:
            overrides = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
            return _USAGE_EXIT
        if not isinstance(overrides, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return _USAGE_EXIT
        # common flags merge only at the top level; leaf parsers would
        # re-apply them into the fresh subnamespace and defeat CLI priority
        leaf_overrides = {
            k: v for k, v in overrides.items() if k not in _COMMON_DESTS
        }
        for parser in all_parsers:
            if parser is all_parsers[0]:
                parser.set_defaults(**overrides)
            else:
                parser.set_defaults(**leaf_overrides)
    args = top.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (WeightError, RangeError, IntegrityError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return _INTEGRITY_EXIT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except ShapingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INTEGRITY_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
