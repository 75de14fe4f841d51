"""Machine-readable run reports.

One JSON document per run with top-level keys {suite, timestamp, config,
cases, summary}, plus an optional CSV flattening of per-case metrics. All
numbers are printed with 17 significant digits so that a report round-trips
64-bit floats exactly; cases are sorted by id so two runs with the same
seed differ only in the timestamp line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CaseResult:
    case_id: str
    property: str
    status: str  # "pass" | "fail" | "undetermined"
    metrics: dict[str, float] = field(default_factory=dict)
    witness: list[float] | None = None
    repro: str = ""


@dataclass
class Report:
    suite: str
    timestamp: str
    config: dict
    cases: list[CaseResult]
    summary: dict


def build_summary(cases: list[CaseResult], ops_used: set[str], all_ops: set[str]) -> dict:
    passed = sum(1 for c in cases if c.status == "pass")
    failed = sum(1 for c in cases if c.status == "fail")
    undet = sum(1 for c in cases if c.status == "undetermined")
    missing = sorted(all_ops - ops_used)
    return {
        "total": len(cases),
        "passed": passed,
        "failed": failed,
        "undetermined": undet,
        "ops_covered": sorted(ops_used),
        "ops_missing": missing,
        "coverage_complete": not missing,
    }


def _scalar(v) -> str:
    if isinstance(v, np.integer):
        v = int(v)
    elif isinstance(v, np.floating):
        v = float(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            return json.dumps(str(v))
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


def encode_json(v, indent: int = 0) -> str:
    """Deterministic JSON text: keys in insertion order, floats with 17
    significant digits, non-finite floats as strings."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {encode_json(val, indent + 1)}" for k, val in v.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        rows = [f"{inner}{encode_json(val, indent + 1)}" for val in v]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return _scalar(v)


def report_to_dict(report: Report) -> dict:
    return {
        "suite": report.suite,
        "timestamp": report.timestamp,
        "config": report.config,
        "cases": [
            {
                "id": c.case_id,
                "property": c.property,
                "status": c.status,
                "metrics": c.metrics,
                "witness": c.witness,
                "repro": c.repro,
            }
            for c in sorted(report.cases, key=lambda c: c.case_id)
        ],
        "summary": report.summary,
    }


def render_json(report: Report) -> str:
    return encode_json(report_to_dict(report)) + "\n"


def render_csv(report: Report) -> str:
    lines = ["case_id,status,metric,value"]
    for c in sorted(report.cases, key=lambda c: c.case_id):
        if not c.metrics:
            lines.append(f"{c.case_id},{c.status},,")
        for name, value in c.metrics.items():
            lines.append(f"{c.case_id},{c.status},{name},{format(float(value), '.17g')}")
    return "\n".join(lines) + "\n"
