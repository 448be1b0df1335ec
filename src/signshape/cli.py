"""Command line front end.

Subcommands: optimize, dm {roundtrip, rate-loss},
shape {encode, decode, analyze-switch}, simulate, budget. A profile is
--m --probs (P their count, two for analyze-switch and budget; optimize
alone takes --P), a matcher --n --p (weight round(n p)).

Each subcommand returns its output files, name to text; once it has
finished, they are written into --out-dir, made then, and after them a JSON
manifest recording the command, argv, parameters, seed (null where the
command takes none), package version, output paths, and wall clock time. So
a run that fails leaves no files. Commands with a table return it as CSV and
their full results as JSON, always both. shape encode writes, and shape
decode reads, a block file: JSON of a header (m, P, probs, n, mode, seed)
and the symbols. Only shape encode, simulate and dm roundtrip draw random
numbers, and only they take --seed. Every option takes a value and follows
the subcommand words.
An argument @file stands for the file's lines, one argument a line, read
where it stands; where a flag is given twice, the last one wins. Matchers
are at most 2^16 symbols long, so dm rate-loss takes n <= 2^16 and budget
n <= 2^17; switch analysis takes n <= 2^20. dm roundtrip checks
min(--samples, C(n, w)) words, every word once where --samples covers the
codebook, and counts its unranking probes; it and one simulate SNR point
take at most 2^27 symbols of work, short and long words or blocks counting
more. Exit codes: 0 success, 2 usage or parameter problems, 3 integrity
failures, 4 numerical failures.
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
from .errors import IntegrityError, NumericalError, ParameterError, _integer
from .midist import (
    _capacity_snr_db,
    _warm_sweep,
    mi_curve_for_profile,
    rate_loss_to_db,
    sigma_for_snr,
    snr_db_for,
)
from .shaper import (
    ShapedBlock,
    ShaperConfig,
    _split_symbols,
    _uniform_info,
    decode_block,
    effective_probabilities,
    encode_block_dm,
    encode_block_ideal,
    switch_energy_loss,
    switch_excess_expectation,
)
from .simulate import SimConfig, run as run_simulation


def _write_text(path: Path, text: str) -> None:
    # the temp file sits next to the target so the rename is atomic
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table_files(csv_name: str, header: list[str], rows: list[tuple],
                 json_name: str, payload) -> dict[str, str]:
    """A table command's files: the table as CSV, then its full results as JSON."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return {csv_name: buffer.getvalue(), json_name: _json_text(payload)}


def _block_to_json(block: ShapedBlock, config: ShaperConfig) -> str:
    profile = config.profile
    header = {"m": profile.m, "P": profile.num_distinct, "probs": list(profile.probs),
              "n": config.n, "mode": config.mode, "seed": config.rng_seed}
    return json.dumps({"header": header, "symbols": block.symbols.tolist(),
                       "overflow_count": int(block.overflow_count)})


def _block_from_json(text: str) -> tuple[ShapedBlock, ShaperConfig]:
    """Inverse of _block_to_json: a bad document or header raises
    ParameterError, a payload that is not n constellation points
    IntegrityError."""
    try:
        doc = json.loads(text)
        header = doc["header"]
        profile = ShapingProfile(_integer(header["m"], "block field m", 0), tuple(header["probs"]))
        if len(profile.probs) != _integer(header["P"], "block field P", 0):
            raise ParameterError("header P does not match probs length")
        config = ShaperConfig(
            profile=profile,
            n=_integer(header["n"], "block field n", 0),
            rng_seed=_integer(header["seed"], "block field seed", 0),
            mode=str(header["mode"]),
        )
        symbols = np.asarray(doc["symbols"])
        overflow_count = _integer(doc.get("overflow_count", 0), "block field overflow_count", 0)
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed block document: {exc}") from None
    if symbols.shape != (config.n,):
        raise IntegrityError("block payload does not match its header")
    # numpy reads [1, true] as two integers, so a bool must be caught here
    if any(isinstance(s, bool) for s in doc["symbols"]):
        raise IntegrityError("block contains values that are not integers")
    _split_symbols(symbols, config.profile.m)  # raises on non-points
    return ShapedBlock(symbols=symbols, overflow_count=overflow_count), config


# Most symbols one `dm roundtrip` (min(--samples, C(n, w)) words of n) or one `simulate` SNR
# point (--blocks x n) may work through. A word or block of n counts as max(n, 32) symbols
# (its fixed 13-25 us is 32 symbols at 0.5-1.5 us each on one x86-64 core), n / 2^13 times
# over above 2^13, where big-integer steps grow with n. A run at the cap took 1.6-3.8 minutes
# on a shared 2-vCPU x86-64 host whose speed varied 2.8x between sessions (README): allow 11.
_MAX_WORK = 1 << 27
_MIN_ITEM_COST = 32


def _require_work(flag: str, count: int, n: int) -> None:
    _integer(count, f"--{flag}", 1)
    work = count * max(n, _MIN_ITEM_COST) * max(n, 1 << 13) >> 13
    if work > _MAX_WORK:
        raise ParameterError(
            f"--{flag} at n = {n} asks for at least 2^{work.bit_length() - 1} symbols of work, "
            f"above the 2^{_MAX_WORK.bit_length() - 1} one run may take"
        )


def _noise_grid(args: argparse.Namespace) -> tuple[str, list[float]]:
    """Which one of --snr and --sigma is given, as "snr_db" or "noise_std", and its values."""
    return ("snr_db", args.snr) if args.snr is not None else ("noise_std", args.sigma)


def _cmd_optimize(args: argparse.Namespace) -> dict[str, str]:
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
    return _table_files(
        "optimize-curve.csv",
        header,
        rows,
        "optimize-results.json",
        [
            {
                **dataclasses.asdict(r),
                "profile": {"m": args.m, "P": args.P, "probs": list(r.profile.probs)},
            }
            for r in results
        ],
    )


def _cmd_dm_roundtrip(args: argparse.Namespace) -> dict[str, str]:
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
    print(
        f"roundtrip ok: n={code.n} w={code.w} k={code.k} checked={count}, "
        f"mean {payload['mean_comparisons_per_bit']:.4f} "
        f"max {payload['max_comparisons_per_bit']:.4f} comparisons/bit"
    )
    return {"dm-roundtrip.json": _json_text(payload)}


def _cmd_dm_rate_loss(args: argparse.Namespace) -> dict[str, str]:
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
    return _table_files(
        "dm-rate-loss.csv", header, rows,
        "dm-rate-loss.json", [dict(zip(header, row)) for row in rows],
    )


def _read_bits_file(path: str) -> np.ndarray:
    bits = "".join(Path(path).read_text(encoding="utf-8").split())  # whitespace is skipped
    bad = bits.lstrip("01")  # the text from its first character that is no bit on
    if bad:
        raise ParameterError(f"{path} holds {bad[0]!r}: only 0, 1 and whitespace may appear")
    if not bits:
        raise ParameterError(f"no 0/1 characters found in {path}")
    return np.array([int(c) for c in bits], dtype=np.uint8)


def _cmd_shape_encode(args: argparse.Namespace) -> dict[str, str]:
    profile = ShapingProfile(m=args.m, probs=tuple(args.probs))
    config = ShaperConfig(profile=profile, n=args.n, rng_seed=args.seed, mode=args.mode)
    if args.info_file and config.mode != "block-dm":
        raise ParameterError(f"--info-file takes block-dm mode; {config.mode} draws its own bits")
    files = {}
    if config.mode == "block-dm":
        if args.info_file:
            info = _read_bits_file(args.info_file)
        else:  # block 0 of the stream on --seed, as encode_block_ideal writes
            info = _uniform_info(np.random.default_rng(args.seed), config, 1)[0]
        block = encode_block_dm(config, info)
        files["shape-info.txt"] = "".join(str(int(b)) for b in info) + "\n"
        print(f"info bits: {info.size} -> {Path(args.out_dir) / 'shape-info.txt'}")
    else:
        block = encode_block_ideal(config)
    files["shape-block.json"] = _block_to_json(block, config) + "\n"
    energy = float(np.mean(np.asarray(block.symbols, dtype=float) ** 2))
    print(
        f"encoded {config.n} symbols, mode {config.mode}, overflow {block.overflow_count}, "
        f"mean energy {energy:.3f} -> {Path(args.out_dir) / 'shape-block.json'}"
    )
    return files


def _cmd_shape_decode(args: argparse.Namespace) -> dict[str, str]:
    block, config = _block_from_json(Path(args.block).read_text(encoding="utf-8"))
    info = decode_block(block, config)
    if args.expect_info:
        expected = _read_bits_file(args.expect_info)
        if expected.size != info.size or np.any(expected != info):
            raise IntegrityError("decoded bits do not match --expect-info")
        print("decoded bits match the expected info")
    print(f"decoded {info.size} info bits -> {Path(args.out_dir) / 'shape-decoded-info.txt'}")
    return {"shape-decoded-info.txt": "".join(str(int(b)) for b in info) + "\n"}


def _cmd_shape_analyze_switch(args: argparse.Namespace) -> dict[str, str]:
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
    return _table_files(
        "switch-analysis.csv", header, rows,
        "switch-analysis.json", [dict(zip(header, r)) for r in rows],
    )


def _cmd_simulate(args: argparse.Namespace) -> dict[str, str]:
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
    return _table_files(
        "simulate-sweep.csv",
        ["snr_db", "ser", "mi_estimate"],
        [(snr_db, report.symbol_error_rate, report.mi_estimate) for snr_db, _, report in reports],
        "simulate-report.json",
        [
            {"snr_db": snr_db, "noise_std": sigma, **dataclasses.asdict(report)}
            for snr_db, sigma, report in reports
        ],
    )


def _cmd_budget(args: argparse.Namespace) -> dict[str, str]:
    report = loss_budget(args.m, *args.probs, args.n, args.snr)
    print(
        f"rate {report.operating_rate_bpcu:.4f} bpcu at {report.snr_db:.2f} dB: "
        f"quantization {report.quantization_db:.4f} dB + "
        f"matcher {report.matcher_db:.4f} dB + "
        f"switch {report.switch_db:.4f} dB = {report.total_db:.4f} dB"
    )
    return {"budget.json": _json_text(dataclasses.asdict(report))}


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
        fromfile_prefix_chars="@",
    )
    sub = top.add_subparsers(dest="command", required=True)
    leaves: list[argparse.ArgumentParser] = []
    # every leaf takes --out-dir, after its subcommand words like its own flags
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory")

    def leaf(subparsers, name: str, func, help: str, groups=()) -> argparse.ArgumentParser:
        parser = subparsers.add_parser(name, parents=[common, *groups], help=help)
        parser.set_defaults(func=func)
        leaves.append(parser)
        return parser

    # flag groups that several subcommands share; seeded: the three that draw random numbers
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="run seed")
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

    rt = leaf(dm_sub, "roundtrip", _cmd_dm_roundtrip, "check rank/unrank, count probes",
              [seeded])
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

    enc = leaf(shape_sub, "encode", _cmd_shape_encode, "encode one block", [seeded, profile])
    enc.add_argument("--info-file", default=None)

    dec = leaf(shape_sub, "decode", _cmd_shape_decode, "decode a block file")
    dec.add_argument("--block", required=True)
    dec.add_argument("--expect-info", default=None)

    ana = leaf(shape_sub, "analyze-switch", _cmd_shape_analyze_switch, "overflow impact table")
    ana.add_argument("--probs", type=float, nargs="+", action=_TwoValues, required=True)
    ana.add_argument("--n", type=int, nargs="+", required=True)
    ana.add_argument("--m", type=int, default=5)

    sim = leaf(sub, "simulate", _cmd_simulate, "Monte Carlo AWGN simulation",
               [seeded, profile, noise])
    sim.add_argument("--blocks", type=int, default=16)

    # --m and two --probs as in analyze-switch, but --m has no default here
    bud = leaf(sub, "budget", _cmd_budget, "loss budget at an operating point")
    bud.add_argument("--m", type=int, required=True)
    bud.add_argument("--probs", type=float, nargs="+", action=_TwoValues, required=True)
    bud.add_argument("--n", type=int, required=True)
    bud.add_argument("--snr", type=float, required=True)

    return top, leaves


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    top, _ = build_parser()
    args = top.parse_args(argv)
    started = time.monotonic()
    try:
        files = args.func(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)  # only now: a run that failed made none
        for filename, text in files.items():
            _write_text(out_dir / filename, text)
        # named as its command function: _cmd_dm_roundtrip runs dm-roundtrip
        name = args.func.__name__.removeprefix("_cmd_").replace("_", "-")
        manifest = {
            "command": name,
            "argv": argv,  # as given, an @file unexpanded
            "params": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "outputs": [str(out_dir / filename) for filename in files],
            "duration_s": round(time.monotonic() - started, 6),
        }
        _write_text(out_dir / f"{name}-manifest.json", _json_text(manifest))
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
