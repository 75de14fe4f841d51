"""Byte-identity check of `projcalc run --suite all` reports against a revision.

Runs the full suite on a fixed grid -- seeds {0, 7, 123} x p in {1.5, 2, 3, 7}
x weights {ones, random} x samples {32, 100}, 48 runs -- once in the working
tree and once in a ``git archive`` export of REV. Compares each run's exit
code and its report with the timestamp line removed. Then runs a fixed list
of ``projcalc oracle`` and ``projcalc witness`` commands in both trees and
compares their exit code, stdout and stderr. Prints every pair that differs,
and exits 1 if any does.

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


# The README examples; an oracle query for each set; a boundary witness for
# each set; and a witness at an interior point, which is an error.
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
    ["witness", "--set", "ball", "--p", "3", "--point", "[1, 0]"],
    ["witness", "--set", "cylinder", "--p", "3", "--mask", "0", "--point", "[1, 2]"],
    ["witness", "--set", "cone", "--p", "3", "--point", "[0, -1, 2]"],
    ["witness", "--set", "ball", "--point", "[0.5, 0]"],
]


def _cli(tree: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "projcalc.cli", *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _run(tree: Path, seed: int, p: str, weights: str, samples: int) -> tuple[int, str]:
    code, out, _ = _cli(tree, ["run", "--suite", "all", "--seed", str(seed), "--p", p,
                               "--weights", weights, "--samples", str(samples)])
    lines = out.splitlines(keepends=True)
    return code, "".join(ln for ln in lines if not ln.startswith('  "timestamp": '))


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
        cli_differ = 0
        for argv in COMMANDS:
            a, b = _cli(Path(tmp), argv), _cli(ROOT, argv)
            if a != b:
                cli_differ += 1
                print(f"DIFFERS: projcalc {' '.join(argv)}")
                for what, x, y in zip(("exit", "stdout", "stderr"), a, b):
                    if x != y:
                        print(f"  {what} at {args.against}: {x!r}\n  {what} here: {y!r}")
    print(f"{len(GRID) - differ}/{len(GRID)} reports identical; "
          f"{failed} grid points with a nonzero exit")
    print(f"{len(COMMANDS) - cli_differ}/{len(COMMANDS)} CLI commands identical")
    return 1 if differ or cli_differ else 0


if __name__ == "__main__":
    sys.exit(main())
