"""signshape benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload shape-8k --seed 1 --seconds 10 --trace 0

Workloads: shape-8k, mc-256, optimize-sweep (README.md says why each was
chosen). The run happens in fresh interpreters started from this process,
which imports neither numpy nor the package: several set-up-only processes
give the median `setup_s`, then one process sets up again and measures for
--seconds. OpenBLAS and OpenMP are pinned to one thread in every child.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones, as BENCHMARK.json at
the root of the checkout lists them.
The lines before it name every metric with its unit, including the
workload-specific ones, and describe the host. The full record, host
included, also goes to perfbench/out/.

Exit codes: 0 with a result line; 2 for bad arguments or a checkout without
the package sources; 3 when the memory guard refuses to start; 1 when a
child process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("shape-8k", "mc-256", "optimize-sweep")

# Set-up samples per run, the run's own set-up included. mc-256 and
# optimize-sweep set up in about 1 s, mostly imports, whose time varies by
# a third from one process to the next; shape-8k's 3.4 s is mostly the
# table build, which varies less, and nine samples of it would not fit the
# time the benchmark may take.
SETUP_SAMPLES = {"shape-8k": 5, "mc-256": 9, "optimize-sweep": 9}
# A run must end within 180 s; children get what is left of this.
TIME_LIMIT_S = 170.0
# Peak RSS each workload is expected to reach; the run refuses to start
# unless MemAvailable is at least twice that. Two length-4096 Pascal tables
# take about 0.94 GB; a single length-8192 one would take 5.8 GB, so n stays
# at 8192 split over two matchers.
EXPECTED_PEAK_MB = {"shape-8k": 1000, "mc-256": 150, "optimize-sweep": 150}

class RunError(Exception):
    pass


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (start time, its result line)."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time before starting a worker")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *extra],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return start, json.loads(lines[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        start, probe = run_worker(common + ["--setup-only"], deadline)
        setups.append((probe["ready"] - start, probe))
    OUT.mkdir(exist_ok=True)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    start, result = run_worker(common + extra, deadline)
    setups.append((result["ready"] - start, result))
    result["setup_samples_s"] = [s for s, _ in setups]
    result["setup_s"] = statistics.median(s for s, _ in setups)
    result["import_s_median"] = statistics.median(p["import_s"] for _, p in setups)
    result["build_s_median"] = statistics.median(p["build_s"] for _, p in setups)
    return result


def metrics(args, result: dict) -> dict:
    """The result line's metrics: BENCHMARK.json's per_layer or end_to_end list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = dict(result["per_layer"])
        values["setup.import_s"] = result["import_s_median"]
        values["setup.build_s"] = result["build_s_median"]
        listed = spec["per_layer"]
    else:
        values = {
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "stage1_ms_p50": 1e3 * statistics.median(result["stage1_s"]),
            "stage2_ms_p50": 1e3 * statistics.median(result["stage2_s"]),
        }
        listed = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def describe(args, env: dict, result: dict, out: dict) -> list[str]:
    """Human-readable lines: host, every metric by name with its unit."""
    lines = [
        f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"# host: nproc {env['nproc']}, {env['cpu']}, Python {env['python']}, "
        f"numpy {result['numpy']}, scipy {result['scipy']}, "
        f"load average at start {' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}",
        f"# set-up samples (s): {' '.join(f'{s:.3f}' for s in result['setup_samples_s'])}",
    ]
    for name, m in out["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    attempted, failed = out["attempted"], out["failed"]
    lines.append(f"ops_failed_frac {failed / attempted:.6g} (failed {failed} of {attempted})")
    for name, (value, unit) in result["summary"].items():
        lines.append(f"{name} {value:.6g} {unit}")
    for name, value in result.get("per_layer_named", {}).items():
        shown = "n/a (layer not on this workload's path)" if value is None else f"{value:.6g}"
        lines.append(f"{name} {shown}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "signshape" / "__init__.py").is_file():
        print(f"run.py: no package sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    available = mem_available_mb()
    needed = 2 * EXPECTED_PEAK_MB[args.workload]
    if available is not None and available < needed:
        print(f"run.py: {args.workload} needs about {needed} MB available "
              f"(twice its expected peak), MemAvailable is {available:.0f} MB",
              file=sys.stderr)
        return 3

    env = host()
    try:
        result = measure(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics(args, result),
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": env, "result": out, "worker": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(describe(args, env, result, out)))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
