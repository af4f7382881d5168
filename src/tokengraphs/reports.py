"""Verification reports: one record per checked instance, with JSON and CSV
renderings whose field order and row order are stable across runs."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_BOUND = "bound-holds"
STATUS_BUDGET = "budget-exceeded"

_STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_BOUND, STATUS_BUDGET)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one instance against one named result."""

    check_id: str
    instance: str
    formula_value: object
    solver_value: object
    witness: object
    status: str
    seconds: float

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_PASS and self.formula_value != self.solver_value:
            raise ValueError("a passing report must have formula == solver")


def _plain(value: object) -> object:
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (set, tuple)):
        return list(value)
    return value


def report_to_dict(report: VerificationReport) -> dict:
    # wall time stays out of the machine-readable forms so that identical
    # inputs produce byte-identical reports
    return {
        "check": report.check_id,
        "instance": report.instance,
        "formula_value": _plain(report.formula_value),
        "solver_value": _plain(report.solver_value),
        "witness": _plain(report.witness),
        "status": report.status,
    }


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["check", "instance", "formula_value", "solver_value", "status"])
    for r in reports:
        writer.writerow(
            [
                r.check_id,
                r.instance,
                _plain(r.formula_value),
                _plain(r.solver_value),
                r.status,
            ]
        )
    return buffer.getvalue()


def exit_code_for(reports: list[VerificationReport]) -> int:
    """1 when any row fails; otherwise 3 when any row ran out of budget;
    0 when every row passes or holds its bound."""
    if any(r.status == STATUS_FAIL for r in reports):
        return 1
    if any(r.status == STATUS_BUDGET for r in reports):
        return 3
    return 0
