"""Command-line driver.

Subcommands:

  projcalc run     -- execute a named verification suite, write a JSON report
  projcalc oracle  -- run the sampled membership test on one query
  projcalc witness -- search for a nonsmoothness witness at a point

The default seed comes from --seed, falling back to the PROJCALC_SEED
environment variable, then to 0. ``run`` exits nonzero when any case fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .derivatives import nonsmoothness_witness
from .errors import ProjcalcError
from .oracle import NotRejected, OracleConfig, test_membership
from .projections import Ball, Cylinder, PositiveCone
from .report import encode_json, render_csv, render_json
from .space import SpaceConfig, norm_primal
from .suites import SUITE_NAMES, SuiteSpec, run_suite


def _default_seed() -> int:
    env = os.environ.get("PROJCALC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"PROJCALC_SEED must be an integer, got {env!r}")
    return 0


def _parse_vector(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"expected a JSON array of numbers, got {text!r}: {exc}")
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"expected a JSON array of numbers, got {text!r}: {exc}")
    if arr.ndim != 1:
        raise SystemExit("point/query vectors must be one-dimensional JSON arrays")
    return arr


def _parse_mask(text: str | None, n: int) -> frozenset[int]:
    if not text:
        return frozenset(range(max(1, n // 2)))
    try:
        idx = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit(f"mask must be a comma-separated index list, got {text!r}")
    return frozenset(idx)


def _make_space(args, n: int) -> SpaceConfig:
    weights = None
    if getattr(args, "weights_json", None):
        weights = _parse_vector(args.weights_json)
    try:
        return SpaceConfig(n=n, p=args.p, weights=weights)
    except (ValueError, ProjcalcError) as exc:
        raise SystemExit(f"invalid space parameters: {exc}")


def _make_set(args, space: SpaceConfig):
    if args.set == "ball":
        return Ball(args.r)
    if args.set == "cylinder":
        return Cylinder(args.r, _parse_mask(args.mask, space.n))
    return PositiveCone()


def _add_common_point_args(sub):
    sub.add_argument("--set", required=True, choices=["ball", "cylinder", "cone"])
    sub.add_argument("--point", required=True, help="JSON array for the base point")
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--r", type=float, default=1.0)
    sub.add_argument("--mask", default=None, help="comma-separated coordinate indices")
    sub.add_argument("--weights-json", default=None, help="JSON array of positive weights")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="projcalc")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="execute a verification suite")
    run.add_argument("--suite", required=True, choices=SUITE_NAMES)
    run.add_argument("--n", type=int, default=SuiteSpec.n)
    run.add_argument("--p", type=float, default=SuiteSpec.p)
    run.add_argument("--r", type=float, default=SuiteSpec.r)
    run.add_argument("--mask-density", type=float, default=SuiteSpec.mask_density)
    run.add_argument("--weights", choices=["ones", "random"], default=SuiteSpec.weights_mode)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--samples", type=int, default=SuiteSpec.samples)
    run.add_argument("--tol-scale", type=float, default=SuiteSpec.tol_scale)
    run.add_argument("--case", default=None, help="run a single case id")
    run.add_argument("--out", default=None, help="path for the JSON report")
    run.add_argument("--csv", default=None, help="optional CSV metrics path")

    orc = subs.add_parser("oracle", help="sampled membership test for one query")
    _add_common_point_args(orc)
    orc.add_argument("--xstar", required=True, help="JSON array, the candidate")
    orc.add_argument("--ystar", required=True, help="JSON array, the query")
    orc.add_argument("--radii", default=None, help="comma-separated decreasing radii")
    orc.add_argument("--directions", type=int, default=OracleConfig.directions_per_radius)
    orc.add_argument("--oracle-seed", type=int, default=None)
    orc.add_argument("--reject-threshold", type=float, default=OracleConfig.reject_threshold)
    orc.add_argument("--no-structured-probes", action="store_true")

    wit = subs.add_parser("witness", help="nonsmoothness witness search")
    _add_common_point_args(wit)
    return parser


def _check_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, and leave no new file."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        spec = SuiteSpec(
            suite=args.suite,
            n=args.n,
            p=args.p,
            r=args.r,
            mask_density=args.mask_density,
            weights_mode=args.weights,
            seed=seed,
            samples=args.samples,
            tol_scale=args.tol_scale,
            case_filter=args.case,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid suite parameters: {exc}")
    for path in filter(None, (args.out, args.csv)):
        _check_writable(path)
    report = run_suite(spec)
    if args.case is not None and not report.cases:
        sys.stderr.write(
            f"error: --case {args.case!r} matches no case that suite {args.suite!r}"
            " runs at these settings\n"
        )
        return 2
    text = render_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render_csv(report))
    summary = report.summary
    sys.stderr.write(
        f"{report.suite}: {summary['passed']}/{summary['total']} passed, "
        f"{summary['failed']} failed\n"
    )
    return 0 if summary["failed"] == 0 else 1


def _cmd_oracle(args) -> int:
    point = _parse_vector(args.point)
    space = _make_space(args, len(point))
    set_ = _make_set(args, space)
    xstar = _parse_vector(args.xstar)
    ystar = _parse_vector(args.ystar)
    seed = args.oracle_seed if args.oracle_seed is not None else _default_seed()
    try:
        radii = OracleConfig.radii
        if args.radii:
            radii = tuple(float(tok) for tok in args.radii.split(","))
        cfg = OracleConfig(
            radii=radii,
            directions_per_radius=args.directions,
            seed=seed,
            reject_threshold=args.reject_threshold,
            structured_probes=not args.no_structured_probes,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid oracle parameters: {exc}")
    verdict = test_membership(
        set_, space.primal(point), space.dual(xstar), space.dual(ystar), cfg
    )
    if isinstance(verdict, NotRejected):
        payload = {
            "verdict": "not_rejected",
            "max_quotient_per_radius": list(verdict.max_quotient_per_radius),
        }
    else:
        payload = {
            "verdict": "rejected",
            "witness_u": verdict.u.coords.tolist(),
            "witness_quotient": verdict.quotient,
            "max_quotient_per_radius": list(verdict.max_quotient_per_radius),
        }
    sys.stdout.write(encode_json(payload) + "\n")
    return 0


def _cmd_witness(args) -> int:
    point = _parse_vector(args.point)
    space = _make_space(args, len(point))
    set_ = _make_set(args, space)
    witness = nonsmoothness_witness(set_, space.primal(point))
    if witness is None:
        payload = {"found": False}
    else:
        payload = {
            "found": True,
            "direction": witness.direction.coords.tolist(),
            "defect": witness.defect,
            "relative_defect": witness.defect / norm_primal(witness.direction),
        }
    sys.stdout.write(encode_json(payload) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # An overflow surfaces as a NonFiniteError below; numpy's warning would
    # only print the same fault a second time.
    try:
        with np.errstate(over="ignore"):
            if args.command == "run":
                return _cmd_run(args)
            if args.command == "oracle":
                return _cmd_oracle(args)
            return _cmd_witness(args)
    except (ProjcalcError, OSError) as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
