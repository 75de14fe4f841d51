"""Byte-identity check of `projcalc run --suite all` reports against a revision.

Runs the full suite on a fixed grid -- seeds {0, 7, 123} x p in {1.5, 2, 3, 7}
x weights {ones, random} x samples {32, 100}, 48 runs -- once in the working
tree and once in a ``git archive`` export of REV. Compares each run's exit
code and its report with the timestamp line removed, prints every pair that
differs, and exits 1 if any does.

    python3 tools/report_grid.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _export

GRID = list(
    itertools.product((0, 7, 123), ("1.5", "2", "3", "7"), ("ones", "random"), (32, 100))
)


def _run(tree: Path, seed: int, p: str, weights: str, samples: int) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "projcalc.cli", "run", "--suite", "all", "--seed", str(seed),
           "--p", p, "--weights", weights, "--samples", str(samples)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines(keepends=True)
    return proc.returncode, "".join(ln for ln in lines if not ln.startswith('  "timestamp": '))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, help="git revision to compare with")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="report-grid-") as tmp:
        _export(args.against, Path(tmp))
        differ = failed = 0
        for point in GRID:
            label = "seed {} p {} weights {} samples {}".format(*point)
            (code_a, text_a), (code_b, text_b) = _run(Path(tmp), *point), _run(ROOT, *point)
            failed += code_a != 0 or code_b != 0
            if (code_a, text_a) == (code_b, text_b):
                continue
            differ += 1
            print(f"DIFFERS: {label}: exit {code_a} at {args.against}, {code_b} here")
            sys.stdout.writelines(
                difflib.unified_diff(text_a.splitlines(keepends=True),
                                     text_b.splitlines(keepends=True), args.against, "working tree")
            )
    print(f"{len(GRID) - differ}/{len(GRID)} reports identical; "
          f"{failed} grid points with a nonzero exit")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
