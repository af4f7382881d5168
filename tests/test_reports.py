import json

import pytest

from tokengraphs.reports import (
    STATUS_BOUND,
    STATUS_BUDGET,
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
    exit_code_for,
    reports_to_csv,
    reports_to_json,
)


def _report(status, formula=1, solver=1):
    return VerificationReport(
        check_id="thm1",
        instance="C6, k=3",
        formula_value=formula,
        solver_value=solver,
        witness=None,
        status=status,
        seconds=0.01,
    )


def test_pass_requires_agreement():
    with pytest.raises(ValueError):
        _report(STATUS_PASS, formula=1, solver=2)
    _report(STATUS_PASS)  # fine when they agree


def test_unknown_status_rejected():
    with pytest.raises(ValueError):
        _report("maybe")


def test_json_rendering_is_stable():
    text = reports_to_json([_report(STATUS_PASS)])
    rows = json.loads(text)
    assert rows[0] == {
        "check": "thm1",
        "instance": "C6, k=3",
        "formula_value": 1,
        "solver_value": 1,
        "witness": None,
        "status": "pass",
    }
    assert reports_to_json([_report(STATUS_PASS)]) == text


def test_rendered_reports_are_timing_free():
    # identical inputs must produce byte-identical reports, so wall time
    # never reaches the machine-readable forms
    slow = VerificationReport("thm1", "C6, k=3", 1, 1, None, STATUS_PASS, 99.9)
    fast = VerificationReport("thm1", "C6, k=3", 1, 1, None, STATUS_PASS, 0.001)
    assert reports_to_json([slow]) == reports_to_json([fast])
    assert reports_to_csv([slow]) == reports_to_csv([fast])


def test_csv_rendering():
    text = reports_to_csv([_report(STATUS_BOUND)])
    lines = text.splitlines()
    assert lines[0] == "check,instance,formula_value,solver_value,status"
    assert lines[1].startswith("thm1,")


def test_exit_codes():
    assert exit_code_for([_report(STATUS_PASS), _report(STATUS_BOUND)]) == 0
    assert exit_code_for([_report(STATUS_PASS), _report(STATUS_FAIL, solver=0, formula=0)]) == 1
    # a failed row outranks a row that ran out of budget
    assert (
        exit_code_for(
            [_report(STATUS_FAIL, formula=0, solver=1), _report(STATUS_BUDGET)]
        )
        == 1
    )
    assert exit_code_for([_report(STATUS_PASS), _report(STATUS_BUDGET)]) == 3
    assert exit_code_for([_report(STATUS_PASS)]) == 0
