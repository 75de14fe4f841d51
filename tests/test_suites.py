"""The suite table: parameter validation and `--case` replay."""

import json
import math
import shlex

import pytest

from projcalc.cli import main
from projcalc.suites import SuiteSpec


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"r": math.inf}, {"r": math.nan}, {"tol_scale": math.inf}, {"tol_scale": math.nan}],
        ids=["r-inf", "r-nan", "tol-scale-inf", "tol-scale-nan"],
    )
    def test_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SuiteSpec(suite="all", **kwargs)


def _run(argv, tmp_path, name):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_every_repro_line_reproduces_its_case(tmp_path, capsys):
    code, full = _run(
        ["run", "--suite", "all", "--samples", "10", "--seed", "7", "--p", "3",
         "--weights", "random"],
        tmp_path, "full.json",
    )
    assert code == 0
    assert len(full["cases"]) == 38
    for i, case in enumerate(full["cases"]):
        argv = shlex.split(case["repro"])
        assert argv[:2] == ["projcalc", "run"]
        code, single = _run(argv[1:], tmp_path, f"case{i}.json")
        assert code == 0
        (got,) = single["cases"]
        for key in ("id", "status", "metrics", "witness", "property", "repro"):
            assert got[key] == case[key], (case["id"], key)
    capsys.readouterr()
