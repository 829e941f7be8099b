"""The pass rule of the acceptance criteria, run on fake criteria."""

import math

import numpy as np
import pytest

from mcflab import verify
from mcflab.verify import Check, Criterion, run_criterion


def run(*checks, budget=10.0):
    return run_criterion(Criterion(0, "fake", lambda: list(checks), budget))


@pytest.mark.parametrize("op", ["<=", "<", ">="])
@pytest.mark.parametrize(
    "values", [math.nan, [0.0, math.nan, 0.0], np.array([[0.0, 0.0], [0.0, math.nan]])],
    ids=["number", "list", "array"],
)
def test_a_nan_fails_its_check(values, op):
    bound = -1.0 if op == ">=" else 1.0  # every finite value keeps it
    passed, line = run(Check("ok", 0.0, "<=", 1.0), Check("dev", values, op, bound))
    assert not passed
    assert f"[FAIL] fake: ok 0 <= 1, dev nan {op} " in line


def test_a_nan_fails_a_boolean_check():
    passed, line = run(Check("flag", [True, math.nan]))
    assert not passed
    assert "flag False" in line


def test_le_holds_at_the_bound_and_lt_does_not():
    assert run(Check("x", [0.5, 1.0], "<=", 1.0))[0]
    passed, line = run(Check("x", [0.5, 1.0], "<", 1.0))
    assert not passed
    assert "x 1 < 1" in line


def test_ge_reduces_by_the_minimum():
    passed, line = run(Check("margin", [3.0, -2.0, 5.0], ">=", -1.0))
    assert not passed
    assert "margin -2 >= -1" in line
    assert run(Check("margin", [3.0, -2.0, 5.0], ">=", -2.0))[0]


def test_one_false_fails_a_boolean_check():
    passed, line = run(Check("flag", [True, False, True]))
    assert not passed
    assert "flag False" in line
    assert run(Check("flag", [True, np.True_]))[0]


def test_over_budget():
    passed, line = run(Check("x", 0.0, "<=", 1.0), budget=0.0)
    assert not passed
    assert "[criterion 0] [FAIL, over budget] fake:" in line
    # a failed check outranks the budget
    assert "[FAIL] fake:" in run(Check("x", 2.0, "<=", 1.0), budget=0.0)[1]


def test_a_measure_that_raises_fails_with_its_exception_named():
    def measure():
        raise ZeroDivisionError("float division by zero")

    passed, line = run_criterion(Criterion(0, "fake", measure, 10.0))
    assert not passed
    assert line.startswith(
        "[criterion 0] [FAIL] fake: raised ZeroDivisionError: float division by zero (")
    assert line.endswith("s / budget 10s)")


def test_line_names_each_worst_value_and_bound():
    passed, line = run(
        Check("dev", [2.5e-13, 1.23456e-9], "<=", 1e-7),
        Check("|alpha(64)|", 1.0163, "<", 1.02),
        Check("ordering", [True] * 3),
    )
    assert passed
    assert line.startswith(
        "[criterion 0] [PASS] fake: dev 1.235e-09 <= 1e-07, |alpha(64)| 1.016 < 1.02, "
        "ordering True ("
    )
    assert line.endswith("s / budget 10s)")


def test_criterion_2_fails_on_a_nan_scaling_deviation(monkeypatch):
    real = verify.verify_scaling
    monkeypatch.setattr(
        verify, "verify_scaling", lambda mp1, mp: math.nan if mp.b == 2.0 else real(mp1, mp)
    )
    passed, line = run_criterion(verify.CRITERIA[1])
    assert not passed
    assert "[criterion 2] [FAIL]" in line
    assert "scaling sup-dev nan <= 1e-07" in line
