"""Command line front end.

Subcommands: optimize, dm {roundtrip, rate-loss},
shape {encode, decode, analyze-switch}, simulate, budget. A profile is
--m --probs (P their count, two for analyze-switch and budget; optimize
alone takes --P), a matcher --n --p (weight round(n p)).

Every run writes its outputs into --out-dir, made at the first write so a
refused run leaves nothing, plus a JSON manifest recording the command,
parameters, seed, package version, output paths, and wall clock time.
Commands with a table write it as CSV and their full results as JSON,
always both. Every option takes a value and follows the subcommand words.
A --config file (JSON object keyed by flag destination names) becomes flag
tokens placed right after those words, so explicit flags, later on the line,
override it. Its values are parsed and checked as the flags would be, and a
key that is no flag of the subcommand exits 2. Matchers are at most 2^16
symbols long, so dm rate-loss takes n <= 2^16 and budget n <= 2^17;
switch analysis takes n <= 2^20. dm roundtrip checks min(--samples, C(n, w))
words, every word once where --samples covers the codebook, and counts its
unranking probes; it and one simulate SNR point take at most 2^27 symbols
of work, short and long words or blocks counting more. Exit codes: 0 success,
2 usage or parameter problems, 3 integrity failures, 4 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import random
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .budget import loss_budget
from .constellation import ShapingProfile, induced_distribution
from .enumdm import dm_code, rank, rate_loss, unrank_counted, weight_for
from .errors import (
    IntegrityError,
    NumericalError,
    ParameterError,
)
from .midist import (
    _capacity_snr_db,
    _warm_sweep,
    mi_curve_for_profile,
    rate_loss_to_db,
    sigma_for_snr,
    snr_db_for,
)
from .shaper import (
    ShaperConfig,
    _uniform_info,
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


def _write_text(path: Path, text: str) -> None:
    # the directory is made here, at the first write, so a refused run
    # leaves none; the temp file sits next to the target so the rename is atomic
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


class _Run:
    """Writes one command's outputs, then the manifest that lists them."""

    def __init__(self, args: argparse.Namespace, name: str):
        self.args = args
        self.name = name
        self.out_dir = Path(args.out_dir)
        self.outputs: list[str] = []
        self.started = time.monotonic()

    def write(self, filename: str, text: str) -> Path:
        path = self.out_dir / filename
        _write_text(path, text)
        self.outputs.append(str(path))
        return path

    def emit(self, json_name: str, payload, csv: tuple | None = None) -> None:
        """Write payload as JSON and csv, a (name, header, rows) table, as CSV."""
        if csv is not None:
            name, header, rows = csv
            self.write(name, _csv_text(header, rows))
        self.write(json_name, json.dumps(payload, indent=2) + "\n")

    def finish(self) -> None:
        params = {k: v for k, v in sorted(vars(self.args).items()) if k != "func"}
        manifest = {
            "command": self.name,
            "argv": sys.argv[1:],
            "params": params,
            "seed": self.args.seed,
            "version": __version__,
            "outputs": list(self.outputs),
            "duration_s": round(time.monotonic() - self.started, 6),
        }
        path = self.out_dir / f"{self.name}-manifest.json"
        _write_text(path, json.dumps(manifest, indent=2) + "\n")


# Most symbols one `dm roundtrip` (min(--samples, C(n, w)) words of n) or one `simulate` SNR
# point (--blocks x n) may work through. A word or block of n counts as max(n, 32) symbols
# (its fixed 13-25 us is 32 symbols at 0.5-1.5 us each on one x86-64 core), n / 2^13 times
# over above 2^13, where big-integer steps grow with n. A run at the cap took 1.6-3.8 minutes
# on a shared 2-vCPU x86-64 host whose speed varied 2.8x between sessions (README): allow 11.
_MAX_WORK = 1 << 27
_MIN_ITEM_COST = 32


def _require_work(flag: str, count: int, n: int) -> None:
    if count < 1:
        raise ParameterError(f"--{flag} must be at least 1, got {count}")
    work = count * max(n, _MIN_ITEM_COST) * max(n, 1 << 13) >> 13
    if work > _MAX_WORK:
        raise ParameterError(
            f"--{flag} at n = {n} asks for at least 2^{work.bit_length() - 1} symbols of work, "
            f"above the 2^{_MAX_WORK.bit_length() - 1} one run may take"
        )


def _noise_grid(args: argparse.Namespace) -> tuple[str, list[float]]:
    """Which one of --snr and --sigma is given, as "snr_db" or "noise_std", and its values."""
    return ("snr_db", args.snr) if args.snr is not None else ("noise_std", args.sigma)


def _cmd_optimize(args: argparse.Namespace, run: _Run) -> None:
    key, grid = _noise_grid(args)
    results = []
    for result in _warm_sweep(args.m, args.P, key, grid):
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
    run.emit(
        "optimize-results.json",
        [
            {
                **dataclasses.asdict(r),
                "profile": {"m": args.m, "P": args.P, "probs": list(r.profile.probs)},
            }
            for r in results
        ],
        csv=("optimize-curve.csv", header, rows),
    )


def _cmd_dm_roundtrip(args: argparse.Namespace, run: _Run) -> None:
    code = dm_code(args.n, weight_for(args.n, args.p))
    count = min(args.samples, code.num_words)
    _require_work("samples", count, code.n)
    # every word index once where --samples covers the codebook, else --samples
    # lazy draws from random.Random(--seed)
    exhaustive = count == code.num_words
    if exhaustive:
        indices = range(count)
    else:
        rng = random.Random(args.seed)  # randrange takes C(n, w) of any size
        indices = (rng.randrange(code.num_words) for _ in range(count))
    total_comparisons = max_comparisons = 0
    # rank refuses a word of the wrong weight (IntegrityError, exit 3); an
    # index may have more digits than str() converts, so give its size
    for index in indices:
        word, comparisons = unrank_counted(index, code)
        if rank(word, code) != index:
            raise IntegrityError(
                f"rank(unrank(i)) != i for a {index.bit_length()}-bit index i "
                f"at (n, w) = ({code.n}, {code.w})"
            )
        total_comparisons += comparisons
        max_comparisons = max(max_comparisons, comparisons)
    payload = {
        "n": code.n,
        "w": code.w,
        "k": code.k,
        "checked": count,
        "exhaustive": exhaustive,
        "ok": True,
        "mean_comparisons_per_bit": total_comparisons / (count * code.n),
        "max_comparisons_per_bit": max_comparisons / code.n,
    }
    run.emit("dm-roundtrip.json", payload)
    print(
        f"roundtrip ok: n={code.n} w={code.w} k={code.k} checked={count}, "
        f"mean {payload['mean_comparisons_per_bit']:.4f} "
        f"max {payload['max_comparisons_per_bit']:.4f} comparisons/bit"
    )


def _cmd_dm_rate_loss(args: argparse.Namespace, run: _Run) -> None:
    profile = ShapingProfile(m=args.ref_m, probs=tuple(args.ref_probs))
    if not 0 < args.ref_rate < args.ref_m:
        raise ParameterError(f"--ref-rate must lie in (0, --ref-m), got {args.ref_rate}")
    # center the reference curve's window on the capacity SNR for the operating rate
    center = _capacity_snr_db(args.ref_rate)
    grid = np.arange(center - 3.0, center + 3.0 + 1e-9, 0.25)
    curve = mi_curve_for_profile(profile, grid)
    rows = []
    for n in args.n:
        loss = rate_loss(n, args.p)
        level_db = rate_loss_to_db(loss, curve, args.ref_rate)
        code = dm_code(n, weight_for(n, args.p))  # the matcher rate_loss measured
        rows.append((n, code.w, code.k, loss, level_db))
        print(f"n={n:6d}  w={code.w:6d}  rate loss {loss:.6f} bpcu  {level_db:.4f} dB")
    header = ["n", "w", "k", "rate_loss_bpcu", "loss_db"]
    run.emit(
        "dm-rate-loss.json",
        [dict(zip(header, row)) for row in rows],
        csv=("dm-rate-loss.csv", header, rows),
    )


def _read_bits_file(path: str) -> np.ndarray:
    bits = "".join(Path(path).read_text(encoding="utf-8").split())  # whitespace is skipped
    bad = bits.lstrip("01")  # the text from its first character that is no bit on
    if bad:
        raise ParameterError(f"{path} holds {bad[0]!r}: only 0, 1 and whitespace may appear")
    if not bits:
        raise ParameterError(f"no 0/1 characters found in {path}")
    return np.array([int(c) for c in bits], dtype=np.uint8)


def _cmd_shape_encode(args: argparse.Namespace, run: _Run) -> None:
    profile = ShapingProfile(m=args.m, probs=tuple(args.probs))
    config = ShaperConfig(profile=profile, n=args.n, rng_seed=args.seed, mode=args.mode)
    if args.info_file and config.mode != "block-dm":
        raise ParameterError(f"--info-file takes block-dm mode; {config.mode} draws its own bits")
    if config.mode == "block-dm":
        if args.info_file:
            info = _read_bits_file(args.info_file)
        else:  # block 0 of the stream on --seed, as encode_block_ideal writes
            info = _uniform_info(np.random.default_rng(args.seed), config, 1)[0]
        block = encode_block_dm(config, info)
        info_path = run.write("shape-info.txt", "".join(str(int(b)) for b in info) + "\n")
        print(f"info bits: {info.size} -> {info_path}")
    else:
        block = encode_block_ideal(config)
    block_path = run.write("shape-block.json", block_to_json(block, config) + "\n")
    energy = float(np.mean(np.asarray(block.symbols, dtype=float) ** 2))
    print(
        f"encoded {config.n} symbols, mode {config.mode}, "
        f"overflow {block.overflow_count}, mean energy {energy:.3f} -> {block_path}"
    )


def _cmd_shape_decode(args: argparse.Namespace, run: _Run) -> None:
    block, config = block_from_json(Path(args.block).read_text(encoding="utf-8"))
    info = decode_block(block, config)
    if args.expect_info:
        expected = _read_bits_file(args.expect_info)
        if expected.size != info.size or np.any(expected != info):
            raise IntegrityError("decoded bits do not match --expect-info")
        print("decoded bits match the expected info")
    out = run.write("shape-decoded-info.txt", "".join(str(int(b)) for b in info) + "\n")
    print(f"decoded {info.size} info bits -> {out}")


def _cmd_shape_analyze_switch(args: argparse.Namespace, run: _Run) -> None:
    profile = ShapingProfile(m=args.m, probs=tuple(args.probs))
    rows = []
    for n in args.n:
        delta_db = switch_energy_loss(profile, n)
        epsilon = switch_excess_expectation(n)
        p1_eff, p2_eff = effective_probabilities(*profile.probs, n)
        rows.append((n, epsilon, p1_eff, p2_eff, delta_db))
        print(
            f"n={n:6d}  eps={epsilon:10.4f}  "
            f"p_eff=({p1_eff:.6f}, {p2_eff:.6f})  delta={delta_db:.5f} dB"
        )
    header = ["n", "epsilon", "p1_eff", "p2_eff", "delta_db"]
    run.emit(
        "switch-analysis.json",
        [dict(zip(header, r)) for r in rows],
        csv=("switch-analysis.csv", header, rows),
    )


def _cmd_simulate(args: argparse.Namespace, run: _Run) -> None:
    profile = ShapingProfile(m=args.m, probs=tuple(args.probs))
    shaper_cfg = ShaperConfig(profile=profile, n=args.n, rng_seed=args.seed, mode=args.mode)
    _require_work("blocks", args.blocks, args.n)
    key, grid = _noise_grid(args)
    energy = induced_distribution(shaper_cfg.profile).average_energy
    if key == "snr_db":
        sigmas = [(s, sigma_for_snr(energy, s)) for s in grid]
    else:
        sigmas = [(snr_db_for(energy, s) if s > 0 else None, s) for s in grid]
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
    run.emit(
        "simulate-report.json",
        [
            {"snr_db": snr_db, "noise_std": sigma, **dataclasses.asdict(report)}
            for snr_db, sigma, report in reports
        ],
        csv=(
            "simulate-sweep.csv",
            ["snr_db", "ser", "mi_estimate"],
            [
                (snr_db, report.symbol_error_rate, report.mi_estimate)
                for snr_db, _, report in reports
            ],
        ),
    )


def _cmd_budget(args: argparse.Namespace, run: _Run) -> None:
    report = loss_budget(args.m, *args.probs, args.n, args.snr)
    run.emit("budget.json", dataclasses.asdict(report))
    print(
        f"rate {report.operating_rate_bpcu:.4f} bpcu at {report.snr_db:.2f} dB: "
        f"quantization {report.quantization_db:.4f} dB + "
        f"matcher {report.matcher_db:.4f} dB + "
        f"switch {report.switch_db:.4f} dB = {report.total_db:.4f} dB"
    )


class _TwoValues(argparse.Action):
    """nargs="+" held to two values: the subcommand's parser, not the top one, refuses others."""

    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) != 2:
            raise argparse.ArgumentError(self, f"takes two values, got {len(values)}")
        setattr(namespace, self.dest, values)


def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    """The top parser and the parsers of its eight leaf subcommands."""
    top = argparse.ArgumentParser(
        prog="signshape",
        description="Sign-bit probabilistic shaping toolkit for ASK over AWGN",
    )
    sub = top.add_subparsers(dest="command", required=True)
    leaves: list[argparse.ArgumentParser] = []
    # every leaf takes these, after its subcommand words like its own flags
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="run seed")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--config", help="JSON file of flag values that explicit flags override")

    def leaf(subparsers, name: str, func, help: str, groups=()) -> argparse.ArgumentParser:
        parser = subparsers.add_parser(name, parents=[common, *groups], help=help)
        parser.set_defaults(func=func)
        leaves.append(parser)
        return parser

    # flag groups that several subcommands share
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--m", type=int, required=True)
    profile.add_argument("--probs", type=float, nargs="+", required=True)
    profile.add_argument("--n", type=int, required=True)
    profile.add_argument("--mode", choices=("block-dm", "ideal-sources"), default="block-dm")
    noise = argparse.ArgumentParser(add_help=False)
    grid = noise.add_mutually_exclusive_group(required=True)
    grid.add_argument("--snr", type=float, nargs="+", help="SNR grid in dB")
    grid.add_argument("--sigma", type=float, nargs="+", help="noise std grid")

    opt = leaf(sub, "optimize", _cmd_optimize, "optimize shaping profiles over SNR", [noise])
    opt.add_argument("--m", type=int, required=True)
    opt.add_argument("--P", type=int, required=True)

    dm = sub.add_parser("dm", help="fixed-weight matcher tools")
    dm_sub = dm.add_subparsers(dest="dm_command", required=True)

    rt = leaf(dm_sub, "roundtrip", _cmd_dm_roundtrip, "check rank/unrank, count probes")
    rt.add_argument("--n", type=int, required=True)
    rt.add_argument("--p", type=float, default=0.5)
    rt.add_argument("--samples", type=int, default=10000)

    rl = leaf(dm_sub, "rate-loss", _cmd_dm_rate_loss, "finite-length rate loss table")
    rl.add_argument("--n", type=int, nargs="+", required=True)
    rl.add_argument("--p", type=float, required=True)
    rl.add_argument("--ref-m", type=int, default=5)
    rl.add_argument("--ref-probs", type=float, nargs="+", default=[0.04, 0.24])
    rl.add_argument("--ref-rate", type=float, default=3.0)

    shape = sub.add_parser("shape", help="encode, decode, and switch analysis")
    shape_sub = shape.add_subparsers(dest="shape_command", required=True)

    enc = leaf(shape_sub, "encode", _cmd_shape_encode, "encode one block", [profile])
    enc.add_argument("--info-file", default=None)

    dec = leaf(shape_sub, "decode", _cmd_shape_decode, "decode a block file")
    dec.add_argument("--block", required=True)
    dec.add_argument("--expect-info", default=None)

    ana = leaf(shape_sub, "analyze-switch", _cmd_shape_analyze_switch, "overflow impact table")
    ana.add_argument("--probs", type=float, nargs="+", action=_TwoValues, required=True)
    ana.add_argument("--n", type=int, nargs="+", required=True)
    ana.add_argument("--m", type=int, default=5)

    sim = leaf(sub, "simulate", _cmd_simulate, "Monte Carlo AWGN simulation", [profile, noise])
    sim.add_argument("--blocks", type=int, default=16)

    # --m and two --probs as in analyze-switch, but --m has no default here
    bud = leaf(sub, "budget", _cmd_budget, "loss budget at an operating point")
    bud.add_argument("--m", type=int, required=True)
    bud.add_argument("--probs", type=float, nargs="+", action=_TwoValues, required=True)
    bud.add_argument("--n", type=int, required=True)
    bud.add_argument("--snr", type=float, required=True)

    return top, leaves


def _config_tokens(path: str, leaf: argparse.ArgumentParser) -> list[str]:
    """A --config file's values as flag tokens of the leaf parser."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ParameterError("config file must hold a JSON object")
    # the leaf's flags by destination name
    flags = {a.dest: a.option_strings[0] for a in leaf._actions if a.dest != "help"}
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ParameterError(f"config {path}: {', '.join(unknown)} name no flag of {leaf.prog}")
    tokens = []
    for key, value in config.items():
        if isinstance(value, list):  # a list gives several values
            tokens += [flags[key], *map(str, value)]
        else:
            tokens.append(f"{flags[key]}={value}")  # "=" keeps a value such as -1e-05 one
    return tokens


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    top, leaves = build_parser()
    # the top parser takes no option, so a line opens with its subcommand words
    words = next((w for w in (p.prog.split()[1:] for p in leaves) if argv[: len(w)] == w), [])
    leaf = next((p for p in leaves if p.prog.split()[1:] == words), None)
    try:
        if leaf is not None:
            # --config, however abbreviated; a bare one is left for the full parse to refuse
            lookup = argparse.ArgumentParser(add_help=False)
            lookup.add_argument("--config", nargs="?")
            path = lookup.parse_known_args(argv[len(words):])[0].config
            if path:  # explicit flags come later on the line, and the last one wins
                argv[len(words):len(words)] = _config_tokens(path, leaf)
        args = top.parse_args(argv)
        run = _Run(args, "-".join(words))
        args.func(args, run)
        run.finish()
        return 0
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
