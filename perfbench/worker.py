"""One benchmark process: set up one workload, run it, print one JSON line.

run.py starts this script in a fresh interpreter for every set-up sample and
every run, so the matcher, quadrature and selection-table caches and the peak
RSS never carry over from one workload to the next:

    python3 perfbench/worker.py --workload mc-256 --seed 3 --setup-only
    python3 perfbench/worker.py --workload mc-256 --seed 3 --seconds 10 --trace 0

With --trace 1, operations alternate between traced (even) and untraced
(odd); the difference of their medians is the tracing overhead. Exact
counts are taken over the first `count_ops` traced operations, which depend
only on the seed.
"""

from __future__ import annotations

import time

import argparse
import json
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

LAYERS = ("enumdm", "shaper", "simulate", "midist", "constellation")


def _untraced_span(name):
    return nullcontext()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import numpy
    import scipy

    import tracing
    import workloads

    import_s = time.perf_counter() - t0

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t1 = time.perf_counter()
    workload.setup()
    build_s = time.perf_counter() - t1
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if tracer:
        tracer.uninstall()
    result = {"ready": ready, "import_s": import_s, "build_s": build_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    min_ops = workload.min_ops
    if tracer:
        min_ops = max(min_ops, 2 * workload.count_ops)
    stage1, stage2, op_s, traced = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    # stop before an operation that would, at the median pace, end past the deadline
    while i < min_ops or time.perf_counter() + statistics.median(op_s) <= deadline:
        inputs = workload.inputs(i)
        traced_op = tracer is not None and i % 2 == 0
        t = time.perf_counter()
        try:
            if traced_op:
                tracer.request = i
                tracer.capture = len(traced) < workload.count_ops
                tracer.install()
                try:
                    with tracer.span("bench.op"):
                        times, outputs = workload.op(inputs, tracer.span)
                finally:
                    tracer.uninstall()
                    tracer.capture = False
            else:
                times, outputs = workload.op(inputs, _untraced_span)
        except Exception:
            # an operation that raises is a failed operation, not a failed run
            traceback.print_exc()
            op_s.append(time.perf_counter() - t)
            attempted += 1
            failed += 1
            i += 1
            continue
        op_s.append(time.perf_counter() - t)
        if traced_op:
            traced.append(i)
        stage1.extend(times[0])
        stage2.extend(times[1])
        a, f = workload.check(inputs, outputs)
        attempted += a
        failed += f
        i += 1

    if not stage1 or (tracer and not traced):
        # every operation (or every traced one) raised: there is nothing to time
        sys.exit(f"worker.py: no {'traced ' if tracer else ''}operation of {len(op_s)} "
                 "completed (tracebacks above); nothing to time")
    summary = workload.summary(stage1, stage2, op_s)
    result.update(
        stage1_s=stage1,
        stage2_s=stage2,
        op_s=op_s,
        attempted=attempted,
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        summary=summary,
    )
    if tracer:
        per_layer, named, trace_ok = layer_metrics(tracer, workload, traced, op_s)
        result.update(per_layer=per_layer, per_layer_named=named)
        if not trace_ok:
            result["failed"] += 1
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))


def _bytes_per_mi_call(M: int, K: int) -> int:
    """Bytes of the arrays awgn_mi's equally spaced (Toeplitz) path builds.

    The (2M-1) x K exp table, the M x M int64 index, the M x M x K gather
    `table[idx]` and the M x K denominator, all 8-byte elements.
    """
    return 8 * ((2 * M - 1) * K + M * M + M * M * K + M * K)


def layer_metrics(tracer, workload, traced, op_s):
    """Per-layer metrics of a traced run.

    Returns (metrics for the result line, per-layer figures that are only
    printed because some workloads never reach their layer, whether the matcher replay agreed with dm_encode and kept to its
    comparison bound).
    """
    from tracing import END, NAME, REQUEST, START, ancestor, layer, self_times

    spans = tracer.spans
    own = self_times(spans)
    traced_set = set(traced)
    window = set(traced[: workload.count_ops])

    duration = defaultdict(int)
    own_by_name = defaultdict(int)
    calls = Counter()
    layer_own = defaultdict(int)
    window_calls = Counter()
    by_stage = Counter()
    setup_build_ns = 0
    for idx, s in enumerate(spans):
        name, d = s[NAME], s[END] - s[START]
        if s[REQUEST] < 0:
            if name == "enumdm.dm_code":
                setup_build_ns += d
            continue
        if s[REQUEST] not in traced_set:
            continue
        duration[name] += d
        own_by_name[name] += own[idx]
        calls[name] += 1
        layer_own[layer(name)] += own[idx]
        if s[REQUEST] in window:
            window_calls[name] += 1
            if name in ("midist.awgn_mi", "midist.optimize_profile"):
                by_stage[name, ancestor(spans, idx, "bench.stage")] += 1

    op_ns = duration["bench.op"]
    comparisons, bits, bound, unrank_ok = tracer.unrank_comparisons()
    window_blocks = window_calls["shaper.encode_block_dm"]
    mi_bytes = sum(count * _bytes_per_mi_call(M, K)
                   for (M, K), count in tracer.mi_sizes.items())

    def ratio(a, b):
        return a / b if b else 0.0

    traced_ms = 1e3 * statistics.median(op_s[i] for i in traced)
    untraced_ms = 1e3 * statistics.median(op_s[1::2])
    per_layer = {
        "trace.op_ms_p50": traced_ms,
        "trace.overhead_frac": traced_ms / untraced_ms - 1.0,
        **{f"{name}.self_frac": ratio(layer_own[name], op_ns) for name in LAYERS},
        "enumdm.dm_encode.frac_of_encode": ratio(
            duration["enumdm.dm_encode"], duration["shaper.encode_block_dm"]
        ),
        "midist.awgn_mi.frac_of_optimize": ratio(
            duration["midist.awgn_mi"], duration["midist.optimize_profile"]
        ),
        "enumdm.unrank.comparisons_per_bit": ratio(comparisons, bits),
        "enumdm.dm_code.calls_per_block": ratio(window_calls["enumdm.dm_code"], window_blocks),
        "shaper.overflow_per_block": ratio(
            sum(tracer.overflow[r] for r in window), window_blocks
        ),
        "midist.awgn_mi.calls_per_point_p2": ratio(
            by_stage["midist.awgn_mi", "bench.stage1"],
            by_stage["midist.optimize_profile", "bench.stage1"],
        ),
        "midist.awgn_mi.calls_per_point_p16": ratio(
            by_stage["midist.awgn_mi", "bench.stage2"],
            by_stage["midist.optimize_profile", "bench.stage2"],
        ),
        "midist.awgn_mi.bytes_per_call_computed": ratio(
            mi_bytes, sum(tracer.mi_sizes.values())
        ),
    }

    blocks = calls["shaper.encode_block_dm"]
    decoded = calls["shaper.decode_block"]
    sweep_points = calls["midist.optimize_profile"]

    def per(numerator_ns, count):
        return numerator_ns / 1e9 / count if count else None

    named = {
        "enumdm.dm_code.build_s": setup_build_ns / 1e9,
        "enumdm.dm_encode.s_per_block": per(duration["enumdm.dm_encode"], blocks),
        "enumdm.dm_decode.s_per_block": per(duration["enumdm.dm_decode"], decoded),
        "enumdm.unrank.bound_per_bit": ratio(bound, bits),
        "shaper.encode_block_dm.self_s_per_block": per(own_by_name["shaper.encode_block_dm"], blocks),
        "shaper.decode_block.self_s_per_block": per(own_by_name["shaper.decode_block"], decoded),
        "simulate.run.self_s_per_block": per(own_by_name["simulate.run"], blocks)
        if calls["simulate.run"] else None,
        "midist.awgn_mi.s_per_call": per(duration["midist.awgn_mi"], calls["midist.awgn_mi"]),
        "constellation.induced_pmf.s_per_point": per(
            duration["constellation.induced_pmf"], sweep_points
        ),
        "midist.optimize_profile.self_s_per_point": per(
            own_by_name["midist.optimize_profile"], sweep_points
        ),
        "trace.untraced_op_ms_p50": untraced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.spans": len(spans),
    }
    return per_layer, named, unrank_ok


if __name__ == "__main__":
    main()
