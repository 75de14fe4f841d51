"""Byte-identity check of `projcalc run --suite all` reports against a revision.

Runs the full suite on a fixed grid -- seeds {0, 7, 123} x p in {1.1, 1.5, 2,
3, 7, 10}, the ends of the declared domain included, x weights {ones, random}
x samples {32, 100}, 72 runs -- once in the working tree and once in a
``git archive`` export of REV. Compares each run's exit
code and its report with the timestamp line removed. Compares the same way
two runs at the masks the grid never reaches, ``--mask-density 1`` (a
full-mask cylinder, with no unmasked tail) and ``--mask-density 0.125``
(one masked index at n = 8), counted on their own line; and
six runs at radii where some cases raise, ``--samples 10`` with ``--r``
1e-170, 1e-20, 1e20 and 1e170, and with ``--p 1.5 --r`` 1e-170 and 1e160,
where ||xbar_M||^2 leaves the float range but ||xbar_M|| does not; each
exits 1 by design, so they are counted apart from the grid. Then runs a
fixed list of ``projcalc oracle`` and ``projcalc witness`` commands in both
trees and compares their exit code, stdout and stderr; two of them ask
for a ball and a cylinder witness at ``--r 1e-20``, where a boundary point
must still get a witness.
Prints every pair that differs, and exits 1 if any does. A run that ends
without a report on one side (a traceback) is named and left out of the
case tally. After the totals, names each case whose status, metrics,
witness or error differs between two reports, with the number of runs in
which it differs, and counts the status changes of the cases that both
reports hold, for each group of runs apart. Then names each
``summary`` key that differs, with the number of runs in which it differs,
so a renamed op shows as a change of ``ops_covered`` alone (every run is
a full one, so ``ops_missing`` stays empty). Last, prints the line count
of ``src/projcalc/*.py`` in both trees, and of each file whose count
differs between them.

    python3 tools/report_grid.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import collections
import difflib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _export

GRID = list(
    itertools.product((0, 7, 123), ("1.1", "1.5", "2", "3", "7", "10"), ("ones", "random"),
                      (32, 100))
)

# The fields of a report case that count as a change; ``repro`` and
# ``property`` only restate the configuration and the case.
CASE_FIELDS = ("status", "metrics", "witness", "error")

# Runs at the two ends of the mask: every index masked, and one index at n = 8.
MASK_RUNS = [["--mask-density", d] for d in ("1", "0.125")]

# Runs in which some cases raise a ProjcalcError and are recorded as failed:
# where a deleted or moved ``raise`` would show. At p = 1.5 the squared
# masked norm leaves the float range at the last two radii.
RAISING_RUNS = [["--samples", "10", "--r", r] for r in ("1e-170", "1e-20", "1e20", "1e170")] + [
    ["--samples", "10", "--p", "1.5", "--r", r] for r in ("1e-170", "1e160")
]

# The README examples; an oracle query for each set; a cone query with a
# negative dual at a negative coordinate, where theta* is a member; a
# boundary witness for each set; a witness at an interior point, which is
# an error; and a ball and a cylinder witness at radius 1e-20, where no
# absolute cutoff may drop the probe rays.
COMMANDS = [
    ["oracle", "--set", "ball", "--point", "[1, 0]", "--xstar", "[0, 0]", "--ystar", "[0, 1]",
     "--p", "2.0"],
    ["witness", "--set", "cone", "--point", "[0, 1]", "--p", "2.0"],
    ["oracle", "--set", "ball", "--p", "3", "--point", "[2, 0.5]", "--xstar", "[0, 0]",
     "--ystar", "[0, 1]"],
    ["oracle", "--set", "cylinder", "--p", "3", "--mask", "0", "--point", "[1, 0.5]",
     "--xstar", "[0, 0]", "--ystar", "[-1, 0.3]"],
    ["oracle", "--set", "cone", "--p", "1.5", "--point", "[1, -0.5]", "--xstar", "[0, 0]",
     "--ystar", "[1, 1]"],
    ["oracle", "--set", "cone", "--p", "3", "--point", "[-1, 1, 0.5]", "--xstar", "[0, 0, 0]",
     "--ystar", "[-1, 0, 0]"],
    ["witness", "--set", "ball", "--p", "3", "--point", "[1, 0]"],
    ["witness", "--set", "cylinder", "--p", "3", "--mask", "0", "--point", "[1, 2]"],
    ["witness", "--set", "cone", "--p", "3", "--point", "[0, -1, 2]"],
    ["witness", "--set", "ball", "--point", "[0.5, 0]"],
    ["witness", "--set", "ball", "--p", "3", "--r", "1e-20", "--point", "[1e-20, 0]"],
    ["witness", "--set", "cylinder", "--p", "3", "--mask", "0", "--r", "1e-20", "--point",
     "[1e-20, 2]"],
]


def _src_lines(tree: Path) -> dict[str, int]:
    """The line count of each ``src/projcalc/*.py`` file, by file name."""
    return {f.name: len(f.read_text().splitlines())
            for f in (tree / "src" / "projcalc").glob("*.py")}


def _cli(tree: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "projcalc.cli", *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _grid_args(seed: int, p: str, weights: str, samples: int) -> list[str]:
    return ["--seed", str(seed), "--p", p, "--weights", weights, "--samples", str(samples)]


def _run(tree: Path, args: list[str]) -> tuple[int, str]:
    code, out, _ = _cli(tree, ["run", "--suite", "all", *args])
    lines = out.splitlines(keepends=True)
    return code, "".join(ln for ln in lines if not ln.startswith('  "timestamp": '))


def _parts(text: str) -> tuple[dict, dict[str, dict]]:
    """A report's summary, and its cases by id, each reduced to the fields a
    change may move."""
    report = json.loads(text) if text else {"summary": {}, "cases": []}
    cases = {c["id"]: {k: c.get(k) for k in CASE_FIELDS} for c in report["cases"]}
    return report["summary"], cases


def _differing(a: dict, b: dict) -> set[str]:
    return {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)}


def _compare(
    old: Path, rev: str, run_args: list[str]
) -> tuple[bool, bool, set[str], int, set[str]]:
    """Whether the run differs between REV's tree and this one, whether
    either exits nonzero, the ids of the cases that differ, the number of
    them whose status changed and the summary keys that differ; prints the
    diff of a differing pair."""
    (code_a, text_a), (code_b, text_b) = _run(old, run_args), _run(ROOT, run_args)
    differs = (code_a, text_a) != (code_b, text_b)
    if differs and not (text_a and text_b):
        print(f"NO REPORT: run {' '.join(run_args)} at {rev if not text_a else 'working tree'}")
        return differs, code_a != 0 or code_b != 0, set(), 0, set()
    (summary_a, cases_a), (summary_b, cases_b) = _parts(text_a), _parts(text_b)
    changed = _differing(cases_a, cases_b)
    status_changes = sum(cases_a[cid]["status"] != cases_b[cid]["status"]
                         for cid in changed & cases_a.keys() & cases_b.keys())
    keys = _differing(summary_a, summary_b)
    if differs:
        print(f"DIFFERS: run {' '.join(run_args)}: exit {code_a} at {rev}, {code_b} here")
        sys.stdout.writelines(
            difflib.unified_diff(text_a.splitlines(keepends=True),
                                 text_b.splitlines(keepends=True), rev, "working tree")
        )
    return differs, code_a != 0 or code_b != 0, changed, status_changes, keys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, help="git revision to compare with")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="report-grid-") as tmp:
        _export(args.against, Path(tmp))
        grid = [_compare(Path(tmp), args.against, _grid_args(*point)) for point in GRID]
        masks = [_compare(Path(tmp), args.against, run_args) for run_args in MASK_RUNS]
        raising = [_compare(Path(tmp), args.against, run_args) for run_args in RAISING_RUNS]
        cli_differ = 0
        for argv in COMMANDS:
            a, b = _cli(Path(tmp), argv), _cli(ROOT, argv)
            if a != b:
                cli_differ += 1
                print(f"DIFFERS: projcalc {' '.join(argv)}")
                for what, x, y in zip(("exit", "stdout", "stderr"), a, b):
                    if x != y:
                        print(f"  {what} at {args.against}: {x!r}\n  {what} here: {y!r}")
        old_lines = _src_lines(Path(tmp))
    differ = sum(r[0] for r in grid)
    mask_differ = sum(r[0] for r in masks)
    raising_differ = sum(r[0] for r in raising)
    print(f"{len(GRID) - differ}/{len(GRID)} reports identical; "
          f"{sum(r[1] for r in grid)} grid points with a nonzero exit")
    print(f"{len(MASK_RUNS) - mask_differ}/{len(MASK_RUNS)} mask-density runs identical; "
          f"{sum(r[1] for r in masks)} with a nonzero exit")
    print(f"{len(RAISING_RUNS) - raising_differ}/{len(RAISING_RUNS)} raising-case runs "
          f"identical; {sum(r[1] for r in raising)} with a nonzero exit (each exits 1 by design)")
    print(f"{len(COMMANDS) - cli_differ}/{len(COMMANDS)} CLI commands identical")
    runs = grid + masks + raising
    tally = collections.Counter(cid for r in runs for cid in r[2])
    for cid, count in sorted(tally.items()):
        print(f"  case {cid} differs in {count}/{len(runs)} runs")
    print(f"case status changes: {sum(r[3] for r in grid)} over {len(grid)} grid runs, "
          f"{sum(r[3] for r in masks)} over {len(masks)} mask-density runs, "
          f"{sum(r[3] for r in raising)} over {len(raising)} raising-case runs")
    for key, count in sorted(collections.Counter(k for r in runs for k in r[4]).items()):
        print(f"  summary.{key} differs in {count}/{len(runs)} runs")
    new_lines = _src_lines(ROOT)
    print(f"src/projcalc/*.py: {sum(old_lines.values())} lines at {args.against}, "
          f"{sum(new_lines.values())} here")
    for name in sorted(old_lines.keys() | new_lines.keys()):
        if old_lines.get(name) != new_lines.get(name):
            print(f"  {name}: {old_lines.get(name, 0)} lines at {args.against}, "
                  f"{new_lines.get(name, 0)} here")
    return 1 if differ or mask_differ or raising_differ or cli_differ else 0


if __name__ == "__main__":
    sys.exit(main())
