"""Run every workload, untraced and traced, and print all metrics in one table.

    python3 perfbench/report.py --seed 1 --seconds 20

For each workload this runs run.py three times: once untraced, for the
end-to-end metrics, and twice traced with the same seed, for the per-layer
metrics. The two traced runs must give identical exact counts. The tracing
overhead is the traced run's own `trace.overhead_frac`: its traced and
untraced operations alternate, so host drift between runs does not enter it.
Everything printed also goes to perfbench/out/report.json. Exits 1 if any
check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent

# Counts that must repeat bit for bit for one seed.
EXACT_COUNTS = (
    "enumdm.unrank.comparisons_per_bit",
    "enumdm.dm_code.calls_per_block",
    "shaper.overflow_per_block",
    "midist.awgn_mi.calls_per_point_p2",
    "midist.awgn_mi.calls_per_point_p16",
)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"report.py: run.py failed on {workload} (exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    ok = True
    report = {}
    for workload in WORKLOADS:
        plain_lines, plain = run(workload, args.seed, args.seconds, 0)
        traced_lines, traced = run(workload, args.seed, args.seconds, 1)
        _, again = run(workload, args.seed, args.seconds, 1)
        repeat = {
            name: (traced["metrics"][name]["value"], again["metrics"][name]["value"])
            for name in EXACT_COUNTS
        }
        counts_repeat = all(a == b for a, b in repeat.values())
        ok &= plain["correct"] and traced["correct"] and again["correct"] and counts_repeat
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        print("\n".join(plain_lines))
        print("-- traced run")
        print("\n".join(line for line in traced_lines if not line.startswith("#")))
        print(f"exact counts repeat across two traced runs: {'yes' if counts_repeat else 'NO'}")
        print()
        report[workload] = {
            "untraced": plain, "traced": traced, "traced_again": again,
            "counts_repeat": counts_repeat,
        }
    (HERE / "out" / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
