"""The certify-or-repair staging of simplex on the branches the float engine
rarely reaches: resume from a non-optimal basis, a singular basis, and a
certified infeasibility."""

from fractions import Fraction

import numpy as np
import pytest

from isingcoupler import simplex
from isingcoupler.simplex import (
    BASIC, LOWER, FloatOutcome, certify_or_repair, exact_solve, float_solve, solve_lp,
)


@pytest.fixture
def log(monkeypatch):
    """(name, result) of every certify_basis, exact_resume and exact_solve
    call the staging makes, in order."""
    calls = []
    for name in ("certify_basis", "exact_resume", "exact_solve"):
        def recorded(*args, _fn=getattr(simplex, name), _name=name):
            result = _fn(*args)
            calls.append((_name, result))
            return result
        monkeypatch.setattr(simplex, name, recorded)
    return calls


def exact_lp(a_rows, b, c, ub):
    return ([list(map(Fraction, row)) for row in a_rows], list(map(Fraction, b)),
            list(map(Fraction, c)), [None if u is None else Fraction(u) for u in ub])


def float_outcome(a_rows, b, c, ub):
    return float_solve(np.array(a_rows, dtype=float), np.array(b, dtype=float),
                       np.array([np.inf if u is None else u for u in ub], dtype=float),
                       np.array(c, dtype=float))


# max x0 + 2 x1 s.t. x0 + x1 + s0 = 4, x0 - x1 + s1 = 1, 0 <= x0, x1 <= 3;
# the unique optimum is x = (1, 3, 0, 3) with objective -7.
LP = exact_lp([[1, 1, 1, 0], [1, -1, 0, 1]], [4, 1], [-1, -2, 0, 0], [3, 3, None, None])


def test_non_optimal_basis_resumes_to_the_exact_optimum(log):
    a_rows, b, c, ub = LP
    reference = exact_solve(a_rows, b, c, ub)
    # the float optimum of the opposite objective is feasible but not optimal
    out = float_outcome(a_rows, b, [-v for v in c], ub)
    assert out.feasible
    log.clear()
    res = certify_or_repair(a_rows, b, c, ub, out)
    assert [(name, result if name == "certify_basis" else "ok") for name, result in log] == [
        ("certify_basis", "resume"), ("exact_resume", "ok")]
    assert res.status == "optimal"
    assert res.objective == reference.objective == -7
    assert res.x == reference.x == [1, 3, 0, 3]


def test_singular_basis_falls_back_to_exact_solve(log):
    # columns 0 and 1 are equal, so a basis holding both is singular
    a_rows, b, c, ub = exact_lp([[1, 1, 0], [0, 0, 1]], [2, 1], [1, 2, 0], [None] * 3)
    out = FloatOutcome(True, 0.0, None, [0, 1], np.array([BASIC, BASIC, LOWER, LOWER, LOWER]), 0.0)
    res = certify_or_repair(a_rows, b, c, ub, out)
    assert [name for name, _ in log] == ["certify_basis", "exact_solve"]
    assert log[0][1] is None
    assert res.status == "optimal" and res.objective == 2 and res.x == [2, 0, 1]


def test_infeasible_lp_comes_back_certified(log):
    a_rows, b, c, ub = exact_lp([[1, 1], [1, 1]], [1, 2], [1, 1], [None, None])
    out = float_outcome(a_rows, b, c, ub)
    assert not out.feasible
    res = certify_or_repair(a_rows, b, c, ub, out)
    assert res.status == "infeasible"
    assert [name for name, _ in log] == ["certify_basis"]  # no exact restart
    assert log[0][1][1] > 0  # phase-1 objective, exactly positive
    assert solve_lp(a_rows, b, c, ub).status == "infeasible"


def test_uncertified_infeasibility_is_not_trusted(log):
    # a float outcome that wrongly reports a feasible LP as infeasible
    a_rows, b, c, ub = LP
    out = float_outcome(a_rows, b, c, ub)
    wrong = FloatOutcome(False, 0.0, None, out.basis, out.vstat, 1.0)
    res = certify_or_repair(a_rows, b, c, ub, wrong)
    assert [name for name, _ in log] == ["certify_basis", "exact_solve"]
    assert res.status == "optimal" and res.objective == -7


def test_solve_lp_certifies_the_float_basis(log):
    a_rows, b, c, ub = LP
    res = solve_lp(a_rows, b, c, ub)
    assert [name for name, _ in log] == ["certify_basis"]
    assert res.objective == -7 and res.x == [1, 3, 0, 3]
