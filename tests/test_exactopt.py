"""solve_l0 and solve_l1 against scipy's HiGHS on the same models, with every
emitted sequence checked by verify."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from isingcoupler import (
    Graph, enumerate_labeled_graphs, random_er_graph, solve_l0, solve_l1, union_of_stars,
    verify, weighted_edge_by_edge,
)
from isingcoupler.exactopt import INCUMBENT_TIMEOUT, OPTIMAL


def sign_matrix(g):
    """Coupling signs s_r[i] * s_r[j] (one row per pair i < j, one column per
    canonical row r, which flips qubit i+1 when bit i of r is set) and the
    target coupling vector."""
    pairs = list(itertools.combinations(range(g.n), 2))
    q = np.array([[-1.0 if ((r << 1) >> i ^ (r << 1) >> j) & 1 else 1.0
                   for r in range(1 << (g.n - 1))] for i, j in pairs])
    weights = {(u, v): float(z) for u, v, z in g.edges}
    return q, np.array([weights.get(p, 0.0) for p in pairs])


def enumerated_l0(g, m=None):
    """Fewest canonical rows realizing g: the smallest support S for which
    HiGHS finds Q_S W = b, with strengths unbounded or, given m, |W| <= m."""
    q, b = sign_matrix(g)
    for size in range(q.shape[1] + 1):
        for support in itertools.combinations(range(q.shape[1]), size):
            if not support:
                if not b.any():
                    return 0
                continue
            res = linprog(np.zeros(size), A_eq=q[:, support], b_eq=b,
                          bounds=(None if m is None else -m, m), method="highs")
            if res.status == 0:
                return size
    raise AssertionError("no support realizes the graph")


def check_l0(g, res):
    assert res.status == OPTIMAL
    assert verify(res.sequence, g)
    assert res.objective == res.sequence.l0
    assert res.objective == enumerated_l0(g), g.edges


def paper_big_m(g, kind):
    """The strength bound M of the paper's big-M program for a unit-weight
    graph: the sum of |weights| (practical_sum), or the worst-case bound
    (3n-2)^((3n-1)/2) rounded up to an integer (theorem_bound)."""
    assert all(abs(z) == 1 for _, _, z in g.edges)
    if kind == "practical_sum":
        return max(float(g.total_abs_weight()), 1.0)
    root = math.isqrt((3 * g.n - 2) ** (3 * g.n - 1))
    return float(root + (root * root != (3 * g.n - 2) ** (3 * g.n - 1)))


@pytest.mark.parametrize("kind", ["practical_sum", "theorem_bound"])
@pytest.mark.parametrize("n", [3, 4])
def test_solve_l0_matches_highs_on_every_class(n, kind):
    """The unbounded optimum is also the optimum of the M-bounded program
    under either bound, so dropping big-M changes no answer here."""
    for g in enumerate_labeled_graphs(n, distinct_only=True):
        res = solve_l0(g)
        check_l0(g, res)
        assert res.objective == enumerated_l0(g, paper_big_m(g, kind)), g.edges


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_solve_l0_matches_highs_on_weighted_graphs(p):
    for seed in range(3):
        g = random_er_graph(4, p, (1, 2, 3), seed)
        check_l0(g, solve_l0(g))


def test_solve_l0_honours_its_time_limit():
    g = random_er_graph(6, 0.5, (1, 2, 3), 1)
    start = time.monotonic()
    res = solve_l0(g, time_limit=0.2)
    assert time.monotonic() - start < 0.2 + 0.3
    assert res.status == INCUMBENT_TIMEOUT
    assert verify(res.sequence, g) and res.objective == res.sequence.l0


@pytest.mark.parametrize("p, seed, construction, at_most", [
    (0.6, 1, 21, 11),  # the greedy order alone finds 11 rows in 0.02 s
    (0.8, 4, 25, 10),  # the narrow passes find 10 in 0.2 s; without them 12 after 3 s
])
def test_unfinished_solve_still_shrinks_the_construction(p, seed, construction, at_most):
    """At n=7 the search cannot finish, but it finds a support well below
    the construction it starts from (times on a 2-core VM)."""
    g = random_er_graph(7, p, (1, 2, 3), seed)
    assert weighted_edge_by_edge(g).l0 == construction
    res = solve_l0(g, time_limit=1.0)
    assert res.status == INCUMBENT_TIMEOUT
    assert verify(res.sequence, g) and res.objective == res.sequence.l0
    assert res.objective <= at_most


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(2, 4))
    weight = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    edges = [(i, j, z) for i, j in itertools.combinations(range(n), 2)
             if (z := draw(weight)) != 0]
    return Graph(n, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(weighted_graphs())
def test_solve_l0_never_loses_to_the_construction(g):
    res = solve_l0(g)
    assert res.status == OPTIMAL
    assert verify(res.sequence, g)
    assert res.objective == len(res.sequence.rows)
    assert res.objective <= weighted_edge_by_edge(g).l0
    if g.uniform_weight() is not None:
        assert res.objective <= union_of_stars(g).l0


def highs_l1(g):
    q, b = sign_matrix(g)
    res = linprog(np.ones(2 * q.shape[1]), A_eq=np.hstack([q, -q]), b_eq=b,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("weights", [(), (1, 2, 3)], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
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
