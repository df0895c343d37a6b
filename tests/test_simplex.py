"""simplex on bounds-free LPs: the certify-or-repair staging on the branches
the float engine rarely reaches (resume from a non-optimal basis, a singular
basis, an untrusted float "infeasible"), and both engines against scipy's
HiGHS."""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from isingcoupler import simplex
from isingcoupler.simplex import (
    FloatOutcome, SimplexError, certify_or_repair, exact_solve, float_solve, solve_lp,
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


def exact_lp(a_rows, b, c):
    return [list(map(Fraction, row)) for row in a_rows], list(map(Fraction, b)), list(map(Fraction, c))


def float_outcome(a_rows, b, c):
    return float_solve(np.array(a_rows, dtype=float), np.array(b, dtype=float),
                       np.array(c, dtype=float))


# max x0 + 2 x1 s.t. x0 + x1 + s0 = 4, x0 - x1 + s1 = 1, and the bounds
# x0, x1 <= 3 as the rows x0 + u0 = 3, x1 + u1 = 3; the unique optimum is
# (x0, x1, s0, s1, u0, u1) = (1, 3, 0, 3, 2, 0) with objective -7.
LP = exact_lp([[1, 1, 1, 0, 0, 0], [1, -1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1]],
              [4, 1, 3, 3], [-1, -2, 0, 0, 0, 0])
OPTIMUM = [1, 3, 0, 3, 2, 0]


def test_non_optimal_basis_resumes_to_the_exact_optimum(log):
    a_rows, b, c = LP
    # the float optimum of the opposite objective is feasible but not optimal
    out = float_outcome(a_rows, b, [-v for v in c])
    assert out.feasible
    res = certify_or_repair(a_rows, b, c, out)
    assert [(name, result if name == "certify_basis" else "ok") for name, result in log] == [
        ("certify_basis", "resume"), ("exact_resume", "ok")]
    assert res.objective == -7 and res.x == OPTIMUM


def test_singular_basis_falls_back_to_exact_solve(log):
    # columns 0 and 1 are equal, so a basis holding both is singular
    a_rows, b, c = exact_lp([[1, 1, 0], [0, 0, 1]], [2, 1], [1, 2, 0])
    res = certify_or_repair(a_rows, b, c, FloatOutcome(True, 0.0, None, [0, 1]))
    assert [name for name, _ in log] == ["certify_basis", "exact_solve"]
    assert log[0][1] is None
    assert res.objective == 2 and res.x == [2, 0, 1]


def test_basis_with_a_nonzero_artificial_falls_back_to_exact_solve(log):
    # basis (artificial of row 0, x1) solves with the artificial at 1
    a_rows, b, c = exact_lp([[1, 0], [0, 1]], [1, 1], [1, 1])
    res = certify_or_repair(a_rows, b, c, FloatOutcome(True, 0.0, None, [2, 1]))
    assert log == [("certify_basis", None), ("exact_solve", res)]
    assert res.objective == 2 and res.x == [1, 1]


def test_uncertified_infeasibility_is_not_trusted(log):
    # a float outcome that wrongly reports a feasible LP as infeasible
    a_rows, b, c = LP
    wrong = FloatOutcome(False, 0.0, None, float_outcome(a_rows, b, c).basis)
    res = certify_or_repair(a_rows, b, c, wrong)
    assert [name for name, _ in log] == ["exact_solve"]
    assert res.objective == -7 and res.x == OPTIMUM


def test_solve_lp_certifies_the_float_basis(log):
    res = solve_lp(*LP)
    assert [name for name, _ in log] == ["certify_basis"]
    assert res.objective == -7 and res.x == OPTIMUM


def test_infeasible_system_raises_simplex_error():
    a_rows, b, c = exact_lp([[1, 1], [1, 1]], [1, 2], [1, 1])
    assert not float_outcome(a_rows, b, c).feasible
    for solve in (exact_solve, solve_lp):
        with pytest.raises(SimplexError, match="infeasible"):
            solve(a_rows, b, c)


def random_feasible_lp(seed):
    """min c.x, A x = b, x >= 0 with integer A in [-3, 3], b = A x0 for a
    nonnegative x0 (so it is feasible) and c >= 0 (so it is bounded)."""
    rng = random.Random(seed)
    m, ns = rng.randint(1, 5), rng.randint(2, 9)
    a_rows = [[rng.randint(-3, 3) for _ in range(ns)] for _ in range(m)]
    x0 = [Fraction(rng.choice([0, 0, 1, 2, 3]), rng.choice([1, 2])) for _ in range(ns)]
    b = [sum(a * x for a, x in zip(row, x0)) for row in a_rows]
    return a_rows, b, [rng.randint(0, 4) for _ in range(ns)]


@pytest.mark.parametrize("seed", range(40))
def test_exact_engines_match_highs_on_random_feasible_lps(seed):
    a_rows, b, c = random_feasible_lp(seed)
    highs = linprog(c, A_eq=np.array(a_rows, dtype=float), b_eq=np.array(b, dtype=float),
                    bounds=(0, None), method="highs")
    assert highs.status == 0
    exact = exact_solve(a_rows, b, c)
    staged = solve_lp(a_rows, b, c)
    assert staged.objective == exact.objective
    assert abs(float(exact.objective) - highs.fun) < 1e-7
    for res in (exact, staged):
        assert all(v >= 0 for v in res.x)
        assert [sum(a * x for a, x in zip(row, res.x)) for row in a_rows] == b
        assert sum(cj * xj for cj, xj in zip(c, res.x)) == res.objective
