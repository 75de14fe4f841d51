"""projcalc benchmark: one seeded workload per call, each in its own process.

    python3 perfbench/run.py --workload oracle-stream --seed 1 --seconds 30 --trace 0

Workloads: oracle-stream, verify-suite, pointwise-kernels (see
perfbench/README.md). Run from the repository root; the package is imported
from ``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run. Ops whose outputs fail the correctness gate are
counted in ``failed``; a human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")

# Set-up is sampled in this many fresh processes, and the median reported.
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def _worker(args, tmpdir, deadline, setup_only=False) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmpdir", tmpdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    # One thread per process: the workloads are single-client closed loops.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "projcalc", "__init__.py")):
        sys.stderr.write("perfbench: src/projcalc not found; run from a projcalc checkout\n")
        return 2

    tmpdir = os.path.join(ROOT, f".perfbench-tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        run = _worker(args, tmpdir, deadline)
        setups = [run["setup_s"]]
        if not args.trace:
            setups += [
                _worker(args, tmpdir, deadline, setup_only=True)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: {args.workload} failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["metrics"].items()}
    if "setup_s" in metrics:
        metrics["setup_s"]["value"] = statistics.median(setups)
    attempted, failed = run["attempted"], run["failed"]

    summary = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        f"attempted {attempted} failed {failed} failed_op_share {failed / attempted:.6g}",
        "setup_s samples " + " ".join(f"{s:.4f}" for s in setups),
    ]
    summary += [f"{k}: {v}" for k, v in run.get("describe", {}).items()]
    if "traced_ops" in run:
        summary.append(f"traced ops {run['traced_ops']}")
    summary += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    sys.stderr.write("\n".join(summary) + "\n")
    if run.get("absent"):
        # Traced names that this build of projcalc no longer defines; their
        # metrics read 0.
        print("absent: " + ", ".join(run["absent"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
