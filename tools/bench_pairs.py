"""Paired benchmark runs of a parent commit against a change.

Exports both commits with ``git archive`` into fresh temporary directories
and runs each named workload of the repository's benchmark (``python3
perfbench/run.py``, unchanged) in each, for N pairs per workload; the side
that runs first alternates from pair to pair. Writes one JSON file:

    {what, command, workloads: {<workload>: {machine, nproc, python, numpy,
     workload, seed, seconds, parent, change, pairs[], median, q1, q3, wins}}}

Each run lasts the ``run_seconds`` that ``BENCHMARK.json`` fixes. ``pairs``
holds every run's end-to-end metrics and op counts, and which side ran
first; ``median``, ``q1`` and ``q3`` give each metric's quartiles over the
parent runs and over the change runs; ``wins`` counts, per metric, the pairs
in which the change is better, in the direction ``BENCHMARK.json`` declares
(ties count for neither side).

    python3 tools/bench_pairs.py --workload verify-suite --workload oracle-stream \\
        --seed 91 --pairs 10 --parent HEAD~1 --change HEAD --out pairs.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The committed tree of ``rev``, as ``git archive`` writes it."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def _machine() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return f"{platform.machine()} {line.split(':', 1)[1].strip()}"
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}".strip()


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Quartiles per side and per metric, and the change's wins per metric."""
    out: dict = {"median": {}, "q1": {}, "q3": {}, "wins": {}}
    for name, direction in better.items():
        sides = {s: [pair[s]["metrics"][name] for pair in pairs] for s in ("parent", "change")}
        for key, q in (("q1", 25), ("median", 50), ("q3", 75)):
            out[key][name] = {s: float(np.percentile(v, q)) for s, v in sides.items()}
        sign = 1.0 if direction == "higher" else -1.0
        out["wins"][name] = sum(
            sign * (c - p) > 0.0 for p, c in zip(sides["parent"], sides["change"])
        )
    return out


def _pairs(trees: dict[str, Path], workload: str, seed: int, seconds: int, n: int) -> list:
    pairs = []
    for i in range(n):
        # Alternate which side runs first, so a drifting machine favours neither.
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = _run(trees[side], workload, seed, seconds)
        pairs.append(pair)
        p, c = (pair[s]["metrics"]["ops_per_s"] for s in ("parent", "change"))
        print(f"{workload} pair {i + 1}/{n}: ops_per_s {p:.4g} -> {c:.4g}", file=sys.stderr)
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; give it once per workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    workloads = list(dict.fromkeys(args.workload))
    runs = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side, rev in revs.items():
            trees[side] = Path(tmp) / side
            _export(rev, trees[side])
        for workload in workloads:
            runs[workload] = _pairs(trees, workload, args.seed, seconds, args.pairs)

    doc = {
        "what": "Paired runs of perfbench/run.py at the parent and the change "
                "(tools/bench_pairs.py, run_seconds from BENCHMARK.json, alternating "
                "which side runs first), one entry per workload.",
        "command": " ".join(["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "workloads": {},
    }
    for workload, pairs in runs.items():
        doc["workloads"][workload] = {
            "machine": _machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "workload": workload,
            "seed": args.seed,
            "seconds": seconds,
            "parent": revs["parent"],
            "change": revs["change"],
            "pairs": pairs,
            **summarize(pairs, better),
        }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, med in entry["median"].items():
            print(f"{workload} {name}: median {med['parent']:.4g} -> {med['change']:.4g}, "
                  f"{entry['wins'][name]}/{args.pairs} wins", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
