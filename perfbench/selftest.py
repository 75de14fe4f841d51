"""Self-test of the benchmark's correctness gate, tracer and output format.

    python3 perfbench/selftest.py

Run from the repository root. It checks that

* an injected wrong result is counted as a failed op on every workload: a
  flipped expected verdict on oracle-stream, and a corrupted projection on
  pointwise-kernels and verify-suite;
* a traced name that the build no longer defines reports as absent and
  does not stop a traced run;
* the metrics that ``run.py`` prints match BENCHMARK.json by name and unit;
* ``run.py`` fails without printing a result where there is no source tree.

Prints one line per check and exits 0 when all of them hold. Takes about
half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from projcalc import oracle, projections  # noqa: E402
from tracer import LAYERS, Rebinder, Tracer  # noqa: E402
from worker import layer_metrics  # noqa: E402

TMP = os.path.join(ROOT, f".perfbench-tmp-{os.getpid()}")


def _gate(name: str, state, i: int = 0) -> bool:
    wl = workloads.WORKLOADS[name]
    return wl.check(state, i, wl.op(state, i))


def _corrupted_projection():
    """Every projection scaled by 1.01, bound wherever ``project`` is."""
    original = projections.project
    rebinder = Rebinder()
    rebinder.replace({original: lambda set_, x: 1.01 * original(set_, x)})
    return rebinder


def check_oracle_stream() -> bool:
    queries = workloads.WORKLOADS["oracle-stream"].setup(0, TMP)
    clean = _gate("oracle-stream", queries)
    queries[0].expect_member = not queries[0].expect_member
    return clean and not _gate("oracle-stream", queries)


def check_pointwise_kernels() -> bool:
    state = workloads.WORKLOADS["pointwise-kernels"].setup(0, TMP)
    clean = _gate("pointwise-kernels", state)
    rebinder = _corrupted_projection()
    try:
        corrupted = _gate("pointwise-kernels", state)
    finally:
        rebinder.restore()
    return clean and not corrupted


def check_verify_suite() -> bool:
    state = workloads.WORKLOADS["verify-suite"].setup(0, TMP)
    rebinder = _corrupted_projection()
    try:
        return not _gate("verify-suite", state)
    finally:
        rebinder.restore()


def check_absent_name() -> bool:
    """Remove the oracle's direction draw, then trace a pointwise pass."""
    draw = oracle._random_direction
    del oracle._random_direction
    try:
        modules = {layer: sys.modules[f"projcalc.{layer}"] for layer in LAYERS}
        tracer = Tracer(modules)
        wl = workloads.WORKLOADS["pointwise-kernels"]
        state = wl.setup(0, TMP)
        with tracer:
            wl.op(state, 0)
        metrics, absent = layer_metrics(tracer, LAYERS, 1, 1.0)
    finally:
        oracle._random_direction = draw
    return absent == ["oracle.draw"] and metrics["oracle.draw.calls_per_op"][0] == 0


def _run(cwd: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "pointwise-kernels",
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names() -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, trace)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[section]}
        ok &= proc.returncode == 0 and result["correct"] and printed == declared
    return ok


def check_without_source() -> bool:
    bare = os.path.join(TMP, "bare")
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, 0)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    os.makedirs(TMP)
    checks = (
        ("oracle-stream counts a flipped expected verdict", check_oracle_stream),
        ("pointwise-kernels counts a corrupted projection", check_pointwise_kernels),
        ("verify-suite counts a corrupted projection", check_verify_suite),
        ("a removed traced name reports as absent", check_absent_name),
        ("printed metrics match BENCHMARK.json", check_metric_names),
        ("run.py fails without a source tree", check_without_source),
    )
    failures = 0
    try:
        for label, check in checks:
            ok = check()
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
