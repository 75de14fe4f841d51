"""Command-line driver: report schema, determinism, and usage errors."""

import json

import pytest

from projcalc.cli import main
from projcalc.suites import SUITES


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_report_schema_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "run", "--suite", "space-identities", "--n", "6", "--p", "3.0",
                "--seed", "5", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc.keys()) == ["suite", "timestamp", "config", "cases", "summary"]
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["passed"] + doc["summary"]["failed"] == doc["summary"]["total"]
        ids = [c["id"] for c in doc["cases"]]
        assert ids == sorted(ids)
        for case in doc["cases"]:
            assert case["repro"].startswith("projcalc run --suite")

    def test_full_run_covers_every_operation(self, tmp_path, capsys):
        out = tmp_path / "all.json"
        code = main(["run", "--suite", "all", "--n", "6", "--p", "2.0", "--seed", "3",
                     "--samples", "40", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["coverage_complete"] is True
        assert doc["summary"]["ops_missing"] == []

    def test_hilbert_ball_suite_includes_the_parallel_grid(self, tmp_path, capsys):
        out = tmp_path / "ball.json"
        code = main(["run", "--suite", "coderiv-ball", "--p", "2.0", "--n", "4",
                     "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        ids = [c["id"] for c in doc["cases"]]
        assert "coderiv-ball/hilbert-grid" in ids
        assert doc["summary"]["failed"] == 0

    def test_determinism_modulo_timestamp(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                ["run", "--suite", "all", "--n", "6", "--p", "3.0", "--seed", "11",
                 "--samples", "40", "--out", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        a = [ln for ln in paths[0].read_text().splitlines() if '"timestamp"' not in ln]
        b = [ln for ln in paths[1].read_text().splitlines() if '"timestamp"' not in ln]
        assert a == b

    def test_case_filter(self, tmp_path, capsys):
        out = tmp_path / "one.json"
        code = main(
            ["run", "--suite", "space-identities", "--seed", "1",
             "--case", "space/duality-identity", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert [c["id"] for c in doc["cases"]] == ["space/duality-identity"]

    def test_csv_flattening(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        csv = tmp_path / "r.csv"
        main(["run", "--suite", "decomposition", "--seed", "2", "--out", str(out),
              "--csv", str(csv)])
        capsys.readouterr()
        lines = csv.read_text().splitlines()
        assert lines[0] == "case_id,status,metric,value"
        assert len(lines) > 1

    def test_rejects_out_of_range_exponent(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--suite", "all", "--p", "0.9"])
        capsys.readouterr()

    def test_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--suite", "nonsense"])
        capsys.readouterr()

    @pytest.mark.parametrize("r", ["1e-170", "1e170"])
    def test_raising_case_fails_alone(self, tmp_path, capsys, monkeypatch, r):
        # At these radii some cases raise a ProjcalcError; each is recorded
        # as failed with its error, and the run still reports every case.
        monkeypatch.delenv("PROJCALC_SEED", raising=False)
        out = tmp_path / "report.json"
        code = main(["run", "--suite", "all", "--r", r, "--samples", "10", "--out", str(out)])
        capsys.readouterr()
        assert code == 1
        doc = json.loads(out.read_text())
        every_case = sum(len(suite.cases) for suite in SUITES.values())
        assert doc["summary"]["total"] == len(doc["cases"]) == every_case
        errors = [c for c in doc["cases"] if "error" in c]
        assert errors
        for case in errors:
            assert case["status"] == "fail" and case["metrics"] == {}
            assert case["error"].split(":")[0].endswith("Error")

    @pytest.mark.parametrize("r", ["1e-170", "1e160"])
    def test_extreme_radius_reports_every_case_at_p_below_2(self, tmp_path, capsys, r):
        # ||xbar_M||^2 leaves the float range here while ||xbar_M|| does not;
        # the run still ends in a report, not a traceback.
        out = tmp_path / "report.json"
        code = main(["run", "--suite", "all", "--r", r, "--p", "1.5", "--samples", "10",
                     "--seed", "0", "--out", str(out)])
        capsys.readouterr()
        assert code == 1
        doc = json.loads(out.read_text())
        # Every case but the p = 2 coderiv-ball/hilbert-grid runs.
        runs = sum(case.when is None for suite in SUITES.values() for case in suite.cases)
        assert doc["summary"]["total"] == len(doc["cases"]) == runs

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PROJCALC_SEED", "77")
        out = tmp_path / "env.json"
        main(["run", "--suite", "space-identities", "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["seed"] == 77


class TestOracle:
    def test_rejected_query_prints_witness(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--set", "ball", "--point", "[1, 0]", "--xstar", "[0, 0]",
             "--ystar", "[0, 1]", "--p", "2.0", "--r", "1.0", "--directions", "32"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "rejected"
        assert doc["witness_quotient"] >= 1e-2
        assert len(doc["witness_u"]) == 2

    def test_member_query_not_rejected(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--set", "ball", "--point", "[1, 0]", "--xstar", "[0, 0]",
             "--ystar", "[-1, 0]", "--p", "2.0", "--directions", "32"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["verdict"] == "not_rejected"
        assert doc["max_quotient_per_radius"][-1] <= 1e-3

    def test_cylinder_with_mask(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--set", "cylinder", "--point", "[3, 4, 7]", "--mask", "0,1",
             "--xstar", "[0, 0, 5]", "--ystar", "[0, 0, 5]", "--p", "2.0",
             "--directions", "32"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["verdict"] == "not_rejected"

    def test_accept_threshold_is_not_an_option(self, capsys):
        # test_membership never reads the accept threshold, so no flag sets it.
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--set", "ball", "--point", "[1, 0]", "--xstar", "[0, 0]",
                  "--ystar", "[0, 1]", "--accept-threshold", "1e-4"])
        assert exc.value.code == 2
        assert "--accept-threshold" in capsys.readouterr().err

    def test_bad_vector_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["oracle", "--set", "ball", "--point", "oops", "--xstar", "[0]",
                  "--ystar", "[0]"])
        capsys.readouterr()


class TestWitness:
    def test_ball_boundary(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--set", "ball", "--point", "[1, 0]", "--p", "2.0"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["relative_defect"] >= 0.1

    def test_interior_point_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["witness", "--set", "ball", "--point", "[0.2, 0]", "--p", "2.0"])
        capsys.readouterr()

    def test_interior_point_prints_one_error_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--set", "ball", "--point", "[0.5, 0]"])
        # A SystemExit message is printed as one stderr line, with exit code 1.
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("error:") and "boundary" in exc.value.code


class TestUsageErrors:
    def test_unknown_case_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "none.json"
        code = main(["run", "--suite", "projections", "--case", "nope", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "nope" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--radii", "a,b", "--point", "[0.5,0]"], ["--point", '["a", 0]']],
        ids=["radii", "point"],
    )
    def test_unparsable_oracle_numbers_print_one_error_line(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--set", "ball", *flags, "--xstar", "[0,0]", "--ystar", "[0,0]"])
        # A SystemExit message is printed as one stderr line, with exit code 1.
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert "'a'" in exc.value.code

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--set", "ball", "--r", "-1", "--point", "[0.5,0]",
             "--xstar", "[0,0]", "--ystar", "[0,0]"],
            ["witness", "--set", "ball", "--r", "0", "--point", "[1,0]"],
            ["oracle", "--set", "cylinder", "--mask", ",", "--point", "[0.5,0]",
             "--xstar", "[0,0]", "--ystar", "[0,0]"],
            ["oracle", "--set", "ball", "--r", "inf", "--point", "[0.5,0]",
             "--xstar", "[0,0]", "--ystar", "[0,0]"],
            ["oracle", "--set", "cylinder", "--r", "inf", "--mask", "0", "--point", "[0.5,0]",
             "--xstar", "[0,0]", "--ystar", "[0,0]"],
            ["witness", "--set", "ball", "--r", "nan", "--point", "[1,0]"],
        ],
        ids=["oracle-negative-radius", "witness-zero-radius", "oracle-empty-mask",
             "oracle-infinite-ball-radius", "oracle-infinite-cylinder-radius",
             "witness-nan-radius"],
    )
    def test_invalid_set_prints_one_error_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # A SystemExit message is printed as one stderr line, with exit code 1.
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("error:")
        assert "radius" in exc.value.code or "mask" in exc.value.code

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--suite", "all", "--samples", "10", "--tol-scale", "nan"],
            ["run", "--suite", "all", "--samples", "10", "--tol-scale", "inf"],
            ["run", "--suite", "projections", "--r", "inf"],
            ["oracle", "--set", "ball", "--point", "[2,0]", "--xstar", "[0,0]",
             "--ystar", "[0,1]", "--reject-threshold", "nan"],
            ["oracle", "--set", "ball", "--point", "[2,0]", "--xstar", "[0,0]",
             "--ystar", "[0,1]", "--reject-threshold", "inf"],
            ["oracle", "--set", "ball", "--point", "[2,0]", "--xstar", "[0,0]",
             "--ystar", "[0,1]", "--radii", "0.1,nan"],
        ],
        ids=["run-tol-scale-nan", "run-tol-scale-inf", "run-infinite-radius",
             "oracle-reject-threshold-nan", "oracle-reject-threshold-inf", "oracle-nan-radius"],
    )
    def test_non_finite_parameter_prints_one_error_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # A SystemExit message is printed as one stderr line, with exit code 1.
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("invalid ") and "finite" in exc.value.code

    def test_query_of_another_dimension_prints_one_error_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--set", "ball", "--point", "[2,0]", "--xstar", "[0,0,0]",
                  "--ystar", "[0,1]"])
        # A SystemExit message is printed as one stderr line, with exit code 1.
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("error:") and "coordinates" in exc.value.code

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_missing_output_directory_prints_one_error_line(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "r.txt"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--suite", "space-identities", "--samples", "10", flag, str(path)])
        capsys.readouterr()
        # A SystemExit message is printed as one stderr line, with exit code 1.
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("error:") and str(path) in exc.value.code

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch, flag):
        def run_suite(spec):
            raise AssertionError("the suite ran before the output path was checked")

        monkeypatch.setattr("projcalc.cli.run_suite", run_suite)
        path = tmp_path / "missing" / "r.txt"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--suite", "all", flag, str(path)])
        assert capsys.readouterr().out == ""
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("error:") and str(path) in exc.value.code

    def test_oracle_without_directions_prints_one_error_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--set", "ball", "--point", "[2,0]", "--xstar", "[0,0]",
                  "--ystar", "[0,1]", "--directions", "0", "--no-structured-probes"])
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("error:") and "no probe directions" in exc.value.code

    @pytest.mark.parametrize("source", ["flag", "env", "oracle-flag", "oracle-env"])
    def test_negative_seed_prints_one_error_line(self, monkeypatch, source):
        if source.startswith("oracle"):
            argv = ["oracle", "--set", "ball", "--point", "[2,0]", "--xstar", "[0,0]",
                    "--ystar", "[0,1]"]
            flag, prefix = "--oracle-seed", "invalid oracle parameters:"
        else:
            argv = ["run", "--suite", "space-identities"]
            flag, prefix = "--seed", "invalid suite parameters:"
        if source.endswith("flag"):
            argv += [flag, "-1"]
        else:
            monkeypatch.setenv("PROJCALC_SEED", "-3")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith(prefix) and "seed" in exc.value.code

    @pytest.mark.parametrize(
        "argv",
        [["run", "--suite", "space-identities", "--seed"],
         ["oracle", "--set", "ball", "--point", "[2,0]", "--xstar", "[0,0]", "--ystar", "[0,1]",
          "--oracle-seed"]],
        ids=["run", "oracle"],
    )
    def test_seed_of_2_to_the_64_prints_one_error_line(self, argv):
        # Philox takes a 64-bit key, so a larger seed would alias a smaller one.
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(2**64)])
        assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
        assert exc.value.code.startswith("invalid ") and "seed" in exc.value.code

    def test_overflowing_oracle_query_prints_one_error_line(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import projcalc

        env = dict(os.environ)
        src = str(Path(projcalc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "projcalc.cli", "oracle", "--set", "ball", "--p", "10",
             "--point", "[1e40,-2e40,5e39,0]", "--xstar", "[0,0,0,0]",
             "--ystar", "[0,0,0,0]", "--directions", "8"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
