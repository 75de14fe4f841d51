"""Runs one workload in this process and prints its figures as one JSON line.

``run.py`` starts this script once per measured run and once per extra
set-up sample; run it directly only to debug a workload:

    python3 perfbench/worker.py --workload oracle-stream --seed 1 --seconds 5 \
        --trace 0 --tmpdir /tmp/perfbench

Set-up time covers importing projcalc, building the inputs and expected
outputs, and the warm-up. With ``--trace 0`` every op is timed on its own and
checked after its timer stops. With ``--trace 1`` the run alternates an
untraced and a traced pass over the workload's fixed trace ops and reports
per-op layer figures; the ratio of the two passes' times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (metric prefix, layer, traced names, fields); a metric's name is
# "<prefix>.<field>_per_op". Summed over the names.
FUNCTION_METRICS = (
    ("space.point_new", "space", ("_Point.__init__",), ("calls", "self_ms")),
    (
        "space.point_arith",
        "space",
        ("_Point.__add__", "_Point.__sub__", "_Point.__neg__", "_Point.__mul__"),
        ("calls", "self_ms"),
    ),
    ("space.norm_primal", "space", ("norm_primal",), ("calls", "self_ms")),
    ("space.pair", "space", ("pair",), ("calls", "self_ms")),
    ("space.duality_map", "space", ("duality_map",), ("calls", "self_ms")),
    ("oracle.test_membership", "oracle", ("test_membership",), ("self_ms",)),
    ("oracle.draw", "oracle", ("_random_direction",), ("calls", "incl_ms")),
    ("oracle.structured_probes", "oracle", ("structured_probes",), ("incl_ms",)),
    ("projections.project", "projections", ("project",), ("calls", "self_ms")),
    ("projections.variational_residual", "projections", ("variational_residual",), ("incl_ms",)),
    ("projections.set_contains", "projections", ("set_contains",), ("calls",)),
    ("instances.sample_in_set", "instances", ("sample_in_set",), ("calls", "incl_ms")),
    ("derivatives.frechet_apply", "derivatives", ("frechet_apply",), ("incl_ms",)),
    ("derivatives.gateaux_fd", "derivatives", ("gateaux_fd",), ("incl_ms",)),
    ("derivatives.nonsmoothness_witness", "derivatives", ("nonsmoothness_witness",), ("incl_ms",)),
    ("coderivative.coderiv_ball", "coderivative", ("coderiv_ball",), ("incl_ms",)),
    ("coderivative.coderiv_cylinder", "coderivative", ("coderiv_cylinder",), ("incl_ms",)),
    ("decomposition.Anchor.at", "decomposition", ("Anchor.at",), ("incl_ms",)),
    ("report.render_json", "report", ("render_json",), ("incl_ms",)),
    ("cli.main", "cli", ("main",), ("self_ms",)),
)


def _measure(wl, state, seconds):
    latencies = []
    failed = 0
    i = 0
    gc.collect()
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        out = wl.op(state, i)
        latencies.append(time.perf_counter() - t0)
        failed += not wl.check(state, i, out)
        i += 1
        # Two ops at least, so that a percentile exists.
        if i >= 2 and time.perf_counter() >= end:
            break
    return latencies, failed


def _run_pass(wl, state, ctx):
    outs = []
    busy = 0.0
    with ctx:
        for i in wl.trace_ops:
            t0 = time.perf_counter()
            outs.append(wl.op(state, i))
            busy += time.perf_counter() - t0
    failed = sum(not wl.check(state, i, out) for i, out in zip(wl.trace_ops, outs))
    return busy, failed


def _trace(wl, state, seconds, tracer):
    plain = traced = 0.0
    failed = passes = 0
    gc.collect()
    end = time.perf_counter() + seconds
    while True:
        busy, bad = _run_pass(wl, state, contextlib.nullcontext())
        plain += busy
        failed += bad
        busy, bad = _run_pass(wl, state, tracer)
        traced += busy
        failed += bad
        passes += 1
        if time.perf_counter() >= end:
            break
    return passes * len(wl.trace_ops), traced / plain, 2 * passes * len(wl.trace_ops), failed


def layer_metrics(tracer, layers, ops, overhead):
    ms = 1e3 / ops
    metrics = {f"{layer}.self_ms_per_op": [tracer.layer_self_s(layer) * ms, "ms/op"] for layer in layers}
    absent = []
    for prefix, layer, names, fields in FUNCTION_METRICS:
        if not any(tracer.has(layer, name) for name in names):
            absent.append(prefix)
        calls, incl, self_s = tracer.totals(layer, names)
        values = {
            "calls": [calls / ops, "calls/op"],
            "incl_ms": [incl * ms, "ms/op"],
            "self_ms": [self_s * ms, "ms/op"],
        }
        for field in fields:
            metrics[f"{prefix}.{field}_per_op"] = values[field]
    metrics["oracle.directions_per_op"] = [tracer.directions / ops, "dirs/op"]
    metrics["trace.overhead_ratio"] = [overhead, "ratio"]
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.tmpdir)
    wl.warm(state)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracer import LAYERS, Tracer

        modules = {layer: sys.modules[f"projcalc.{layer}"] for layer in LAYERS}
        tracer = Tracer(modules)
        traced_ops, overhead, attempted, failed = _trace(wl, state, args.seconds, tracer)
        metrics, absent = layer_metrics(tracer, LAYERS, traced_ops, overhead)
        result["absent"] = absent
        result["traced_ops"] = traced_ops
    else:
        latencies, failed = _measure(wl, state, args.seconds)
        attempted = len(latencies)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": [len(latencies) / sum(latencies), "1/s"],
            "latency_p50_ms": [statistics.median(latencies) * 1e3, "ms"],
            "latency_p90_ms": [statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"],
            "setup_s": [setup_s, "s"],
            "peak_rss_mb": [rss_mb, "MB"],
        }
    if wl.final_checks is not None:
        extra_attempted, extra_failed = wl.final_checks(state)
        attempted += extra_attempted
        failed += extra_failed
    if wl.describe is not None:
        result["describe"] = wl.describe(state)
    result.update(attempted=attempted, failed=failed, metrics=metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
