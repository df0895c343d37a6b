"""Property tests of the constructions' row and strength bounds: at most
3n-2 rows and L1 <= n-1 for the union of stars on unweighted graphs, at most
3m+1 rows edge by edge, and every sequence realizes its graph."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from isingcoupler import Graph, union_of_stars, verify, weighted_edge_by_edge


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
