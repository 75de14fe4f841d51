"""The suite table: parameter validation, `--case` replay and declared
coverage."""

import json
import math
import shlex

import pytest

import projcalc as pc
from projcalc import coderivative, oracle
from projcalc.cli import main
from projcalc.suites import ALL_OPS, SUITES, SuiteSpec, run_suite


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"r": math.inf}, {"r": math.nan}, {"tol_scale": math.inf}, {"tol_scale": math.nan}],
        ids=["r-inf", "r-nan", "tol-scale-inf", "tol-scale-nan"],
    )
    def test_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SuiteSpec(suite="all", **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"suite": "nope"}, {"p": 1.0}, {"n": 1}, {"mask_density": 0.0}, {"r": 0.0},
         {"seed": -1}, {"samples": 9}, {"tol_scale": 0.0}, {"weights_mode": "uniform"},
         {"n": 2.0}, {"samples": 32.5}, {"seed": 1.5}, {"seed": 2**64}],
        ids=["suite", "p", "n", "mask-density", "r", "seed", "samples", "tol-scale", "weights",
             "n-float", "samples-float", "seed-float", "seed-2-64"],
    )
    def test_invalid_field_raises_a_projcalc_error(self, kwargs):
        with pytest.raises(pc.ProjcalcError):
            SuiteSpec(**{"suite": "all", **kwargs})


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
    assert len(full["cases"]) == 35
    for i, case in enumerate(full["cases"]):
        argv = shlex.split(case["repro"])
        assert argv[:2] == ["projcalc", "run"]
        code, single = _run(argv[1:], tmp_path, f"case{i}.json")
        assert code == 0
        (got,) = single["cases"]
        for key in ("id", "status", "metrics", "witness", "property", "repro"):
            assert got[key] == case[key], (case["id"], key)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["--suite", "oracle-crosscheck", "--p", "10", "--seed", "8"],
     ["--suite", "decomposition", "--p", "1.1", "--seed", "10"]],
    ids=["base-ray-floor-at-p10", "convergence-gap-at-p1.1"],
)
def test_bounds_follow_the_data_scale(tmp_path, capsys, argv):
    # Both runs used to fail on working code: the base-ray quotient was held
    # to the reject threshold, not to its floor c/3, and the convergence gap
    # to 1e-5, not to 1e-5 max(1, |w|).
    code, report = _run(["run", *argv, "--weights", "random", "--samples", "10"],
                        tmp_path, "report.json")
    capsys.readouterr()
    assert code == 0, [c for c in report["cases"] if c["status"] != "pass"]


def test_oracle_crosscheck_asks_the_oracle_at_most_25_times(monkeypatch):
    calls = []
    ask = oracle.test_membership
    monkeypatch.setattr(oracle, "test_membership", lambda *a: calls.append(a) or ask(*a))
    run_suite(SuiteSpec("oracle-crosscheck", samples=10))
    assert len(calls) <= 25


@pytest.mark.parametrize("suite, density", [("coderiv-ball", 0.5), ("coderiv-cylinder", 1.0)],
                         ids=["ball", "full-mask-cylinder"])
def test_boundary_dispatch_kills_a_loose_alignment_tolerance(monkeypatch, suite, density):
    # At ALIGNMENT_TOL = 1e-1, theta* would lie in the fiber of -J(xbar_M)
    # misaligned by 1e-3. A partial mask would reject that query by its
    # unmasked tail alone, so the cylinder runs with a full mask.
    monkeypatch.setattr(coderivative, "ALIGNMENT_TOL", 1e-1)
    case_id = f"{suite}/boundary-dispatch"
    (case,) = run_suite(SuiteSpec(suite, p=3.0, samples=10, mask_density=density,
                                  case_filter=case_id)).cases
    assert case.status == "fail"
    assert case.metrics["not_member_ok"] == 0.0


class TestCoverage:
    # Only a full run covers every op; a partial run counts only the suites
    # that ran and compares them with ALL_OPS.
    @pytest.mark.parametrize(
        "kwargs",
        [{"suite": "space-identities"}, {"suite": "all", "case_filter": "space/sign-parity"}],
        ids=["one-suite", "all-with-case"],
    )
    def test_partial_run_is_incomplete(self, kwargs):
        summary = run_suite(SuiteSpec(samples=10, **kwargs)).summary
        covered = {"run_suite", *SUITES["space-identities"].ops}
        assert summary["ops_covered"] == sorted(covered)
        assert summary["ops_missing"] == sorted(ALL_OPS - covered)
        assert summary["ops_missing"]
        assert summary["coverage_complete"] is False

    def test_oracle_crosscheck_declares_the_verdict_ops_its_cases_call(self):
        summary = run_suite(SuiteSpec("oracle-crosscheck", samples=10)).summary
        called = {"coderiv_ball", "coderiv_cylinder", "cone_fiber", "contains",
                  "quotient_denominator_pair"}
        assert called <= set(summary["ops_covered"])
        assert called <= ALL_OPS

    def test_coderiv_cylinder_declares_its_theta_verdict(self):
        summary = run_suite(SuiteSpec("coderiv-cylinder", samples=10)).summary
        assert "coderiv_cylinder" in summary["ops_covered"]
