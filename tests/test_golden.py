"""Golden reports: `projcalc run --suite all` must reproduce a stored report
byte for byte, apart from the timestamp line.

The files under tests/golden/ hold the reports with the timestamp line
removed. After an intended change to a report, regenerate them from the
repository root with

    PYTHONPATH=src python3 -m projcalc.cli run --suite all --samples 10 --seed 7 \
        --p 3 --weights random | grep -v '^  "timestamp": ' \
        > tests/golden/run_all_seed7_samples10_p3_random.json

(and likewise for p = 2 with ones weights) and record why in CHANGES.md.
"""

from pathlib import Path

import pytest

from projcalc.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "p, weights",
    [
        ("3", "random"),
        # p = 2 also runs the Hilbert-only case coderiv-ball/hilbert-grid.
        ("2", "ones"),
    ],
)
def test_run_all_matches_golden_report(tmp_path, capsys, p, weights):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--suite", "all", "--samples", "10", "--seed", "7", "--p", p,
         "--weights", weights, "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines(keepends=True)
    got = "".join(ln for ln in lines if not ln.startswith('  "timestamp": '))
    want = (GOLDEN / f"run_all_seed7_samples10_p{p}_{weights}.json").read_text()
    assert got == want
