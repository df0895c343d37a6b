"""solve_l0 and solve_l1 against scipy's HiGHS on the same models, with every
emitted sequence checked by verify."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from isingcoupler import (
    big_m, enumerate_labeled_graphs, random_er_graph, solve_l0, solve_l1, verify,
)
from isingcoupler.exactopt import OPTIMAL, PRACTICAL_SUM, THEOREM_BOUND


def sign_matrix(g):
    """Coupling signs s_r[i] * s_r[j] (one row per pair i < j, one column per
    canonical row r, which flips qubit i+1 when bit i of r is set) and the
    target coupling vector."""
    pairs = list(itertools.combinations(range(g.n), 2))
    q = np.array([[-1.0 if ((r << 1) >> i ^ (r << 1) >> j) & 1 else 1.0
                   for r in range(1 << (g.n - 1))] for i, j in pairs])
    weights = {(u, v): float(z) for u, v, z in g.edges}
    return q, np.array([weights.get(p, 0.0) for p in pairs])


def milp_l0(g, m):
    """Fewest canonical rows with Q W = b and |W_r| <= m z_r, z binary."""
    q, b = sign_matrix(g)
    k = q.shape[1]
    eye = np.eye(k)
    constraints = [
        LinearConstraint(np.hstack([q, np.zeros_like(q)]), b, b),
        LinearConstraint(np.hstack([eye, -m * eye]), -np.inf, 0.0),
        LinearConstraint(np.hstack([-eye, -m * eye]), -np.inf, 0.0),
    ]
    res = milp(np.concatenate([np.zeros(k), np.ones(k)]), constraints=constraints,
               integrality=np.concatenate([np.zeros(k), np.ones(k)]),
               bounds=Bounds(np.concatenate([-m * np.ones(k), np.zeros(k)]),
                             np.concatenate([m * np.ones(k), np.ones(k)])))
    assert res.status == 0, res.message
    return round(res.fun)


def enumerated_l0(g, m):
    """The same model solved by enumerating the binaries: the smallest support
    S for which HiGHS finds Q_S W = b with |W| <= m.  milp cannot take the
    theorem bound (316228 at n=4): its 1e-6 integrality tolerance lets
    z_r = |W_r| / m ~ 3e-6 count as 0."""
    q, b = sign_matrix(g)
    for size in range(q.shape[1] + 1):
        for support in itertools.combinations(range(q.shape[1]), size):
            if not support:
                if not b.any():
                    return 0
                continue
            res = linprog(np.zeros(size), A_eq=q[:, support], b_eq=b,
                          bounds=(-m, m), method="highs")
            if res.status == 0:
                return size
    raise AssertionError("no support realizes the graph")


@pytest.mark.parametrize("kind", [PRACTICAL_SUM, THEOREM_BOUND])
@pytest.mark.parametrize("n", [3, 4])
def test_solve_l0_matches_highs_on_every_class(n, kind):
    oracle = milp_l0 if kind == PRACTICAL_SUM else enumerated_l0
    for g in enumerate_labeled_graphs(n, distinct_only=True):
        m = big_m(g, kind)
        res = solve_l0(g, m)
        assert res.status == OPTIMAL and res.m_kind == kind
        assert verify(res.sequence, g)
        assert res.objective == res.sequence.l0
        assert all(abs(w) <= m.value for w in res.sequence.strengths)
        assert res.objective == oracle(g, float(m.value)), g.edges


def highs_l1(g):
    q, b = sign_matrix(g)
    res = linprog(np.ones(2 * q.shape[1]), A_eq=np.hstack([q, -q]), b_eq=b,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("weights", [(), (1, 2, 3)], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_solve_l1_matches_highs(n, weights):
    for p, seed in itertools.product((0.3, 0.6, 0.9), range(2)):
        g = random_er_graph(n, p, weights, seed)
        res = solve_l1(g)
        assert res.status == OPTIMAL
        assert verify(res.sequence, g)
        assert res.objective == res.sequence.l1
        assert isinstance(res.objective, Fraction)
        assert float(res.objective) == pytest.approx(highs_l1(g), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("solve", [solve_l0, solve_l1])
def test_exact_solvers_refuse_large_instances(solve):
    g = random_er_graph(9, 0.5, (), 0)
    with pytest.raises(ValueError, match="construction"):
        solve(g)
