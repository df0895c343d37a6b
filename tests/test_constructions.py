"""Property tests of the constructions' row and strength bounds: at most
3n-2 rows and L1 <= n-1 for the union of stars on unweighted graphs, at most
3m+1 rows edge by edge, and every sequence realizes its graph; and the exact
rows each construction emits, in order."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isingcoupler import (
    Graph, PulseSequence, biclique_rows, canonicalize, enumerate_labeled_graphs, evaluate,
    random_er_graph, union_of_stars, verify, weighted_edge_by_edge,
)
from isingcoupler.cli import noise_standin_graphs
from isingcoupler.constructions import greedy_star_order


@st.composite
def unweighted_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.unweighted(n, [p for p, k in zip(pairs, keep) if k])


weights = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, [(u, v, draw(weights)) for u, v in chosen])


@settings(max_examples=60, deadline=None)
@given(unweighted_graphs())
def test_union_of_stars_within_3n_minus_2_rows_and_l1_n_minus_1(g):
    seq = union_of_stars(g)
    assert verify(seq, g)
    assert seq.l0 <= 3 * g.n - 2
    assert seq.l1 <= g.n - 1


@settings(max_examples=40, deadline=None)
@given(unweighted_graphs(), st.randoms(use_true_random=False))
def test_union_of_stars_bounds_hold_for_every_star_order(g, rnd):
    order = list(range(g.n))
    rnd.shuffle(order)
    seq = union_of_stars(g, order)
    assert verify(seq, g)
    assert seq.l0 <= 3 * g.n - 2 and seq.l1 <= g.n - 1


@settings(max_examples=60, deadline=None)
@given(weighted_graphs())
def test_edge_by_edge_within_3m_plus_1_rows(g):
    seq = weighted_edge_by_edge(g)
    assert verify(seq, g)
    assert seq.l0 <= 3 * g.m + 1


def rows_and_strengths(seq):
    return seq.rows, tuple(str(w) for w in seq.strengths)


# (rows, strengths) captured from the constructions before they were built
# from flip masks: the merged row order must not change.
STAR_ROWS = {
    "star_k15": ((0, 62), ("1/2", "-1/2")),
    "cycle_c6": ((28, 62, 0, 34, 14, 4, 10, 56, 16, 40),
                 ("1/4", "-1/4", "3/4", "-1/4", "1/4", "-1/4", "-1/4", "1/4", "-1/4", "-1/4")),
    "k6": ((0, 62, 2, 4, 8, 16, 32), ("3/2", "-1/4", "-1/4", "-1/4", "-1/4", "-1/4", "-1/4")),
    "two_hubs": ((4, 0, 6, 58, 56), ("-1/4", "1/2", "-1/4", "1/4", "-1/4")),
}


@pytest.mark.parametrize("name, g", noise_standin_graphs())
def test_union_of_stars_rows_in_greedy_order(name, g):
    assert rows_and_strengths(union_of_stars(g)) == STAR_ROWS[name]


@pytest.mark.parametrize("g, order, expected", [
    (Graph.unweighted(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]), [4, 3, 2, 1, 0],
     ((24, 16, 0, 8, 14, 6, 26, 4, 30, 28, 2),
      ("1/4", "-1/4", "1", "-1/2", "1/4", "-1/4", "1/4", "-1/4", "-1/2", "1/4", "-1/4"))),
    (dict(noise_standin_graphs())["two_hubs"], [1, 2, 0, 3, 4, 5],
     ((58, 0, 56, 4, 6), ("1/4", "1/2", "-1/4", "-1/4", "-1/4"))),
])
def test_union_of_stars_rows_in_an_explicit_order(g, order, expected):
    assert rows_and_strengths(union_of_stars(g, order)) == expected


def reference_star_order(g):
    """The greedy order as a loop over the vertices not yet picked: the
    first of maximum residual degree, until none has an edge left."""
    adj = {v: g.neighbors(v) for v in range(g.n)}
    order = []
    picked = set()
    while True:
        best, best_deg = None, 0
        for v in range(g.n):
            if v not in picked and len(adj[v]) > best_deg:
                best, best_deg = v, len(adj[v])
        if best is None:
            break
        order.append(best)
        picked.add(best)
        for u in adj[best]:
            adj[u].discard(best)
        adj[best] = set()
    order.extend(v for v in range(g.n) if v not in picked)
    return order


def test_greedy_star_order_is_the_reference_loop():
    """Every labeled graph with n <= 5, whose ties cover every tie-break,
    and ER graphs with n = 6..14 at five densities."""
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    graphs += [random_er_graph(n, p, (), seed) for n in range(6, 15)
               for p in (0.1, 0.3, 0.5, 0.7, 0.9) for seed in range(8)]
    for g in graphs:
        assert greedy_star_order(g) == reference_star_order(g)


def fraction_union_of_stars(g):
    """The union of stars merged in Fractions: every star's four biclique
    rows, canonicalized together."""
    mu = g.uniform_weight()
    order = greedy_star_order(g)
    full = (1 << g.n) - 1
    position = {v: i for i, v in enumerate(order)}
    rows = []
    for i, center in enumerate(order):
        leaves = sum(1 << u for u in g.neighbors(center) if position[u] > i)
        if leaves:
            rows += biclique_rows(leaves, full ^ (1 << center | leaves), mu)
    return canonicalize(PulseSequence.from_pairs(g.n, rows))


@pytest.mark.parametrize("mu", [1, Fraction(3, 2), -2, 10**400],
                         ids=["one", "three_halves", "minus_two", "ten_to_400"])
def test_union_of_stars_merged_as_integers_is_the_fraction_merge(mu):
    """Rows, their first-seen order and strengths equal the Fraction merge on
    every graph class with n <= 6."""
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n, distinct_only=True):
            g = Graph.from_edges(n, [(u, v, mu) for u, v, _ in g.edges])
            seq = union_of_stars(g)
            assert seq == fraction_union_of_stars(g)
            assert all(type(w) is Fraction for w in seq.strengths)


def fraction_edge_by_edge(g):
    """The edge-by-edge construction merged in Fractions: every edge's four
    biclique rows, canonicalized together."""
    full = (1 << g.n) - 1
    rows = [row for u, v, z in g.edges
            for row in biclique_rows(1 << v, full ^ (1 << u | 1 << v), z)]
    return canonicalize(PulseSequence.from_pairs(g.n, rows))


@pytest.mark.parametrize("weights", [(1, 2, 3), (Fraction(1, 2), -1, Fraction(3, 4)),
                                     (10**400, 1)], ids=["1,2,3", "1/2,-1,3/4", "10^400,1"])
def test_edge_by_edge_merged_in_integer_units_is_the_fraction_merge(weights):
    """Rows, their first-seen order and strengths equal the Fraction merge on
    every graph class with n <= 5 and on weighted ER(7, 0.5) graphs."""
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n, distinct_only=True)]
    graphs += [random_er_graph(7, 0.5, weights, seed) for seed in range(20)]
    for g in graphs:
        seq = weighted_edge_by_edge(g)
        assert seq == fraction_edge_by_edge(g)
        assert all(type(w) is Fraction for w in seq.strengths)


def test_edge_by_edge_rows():
    g = Graph.from_edges(5, [(0, 2, Fraction(2, 3)), (1, 4, Fraction(-5, 2)),
                             (2, 3, Fraction(1, 6)), (3, 4, 3)])
    assert rows_and_strengths(weighted_edge_by_edge(g)) == (
        (26, 30, 0, 4, 18, 2, 16, 12, 8, 24),
        ("1/6", "-1/6", "1/3", "-5/24", "-5/8", "5/8", "-1/8", "1/24", "-19/24", "3/4"))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_biclique_rows_realize_weight_mu_on_v1_x_v2_only(case, mu):
    n, v2, v3 = case
    v3 &= ~v2
    v1 = (1 << n) - 1 ^ v2 ^ v3
    seq = PulseSequence.from_pairs(n, biclique_rows(v2, v3, mu))
    side = [1 if v1 >> q & 1 else 2 if v2 >> q & 1 else 3 for q in range(n)]
    assert evaluate(seq) == tuple(
        mu if {side[i], side[j]} == {1, 2} else 0 for i, j in itertools.combinations(range(n), 2)
    )


def test_biclique_rows_need_disjoint_v2_and_v3():
    with pytest.raises(ValueError, match="disjoint"):
        biclique_rows(0b0110, 0b0100, 1)
