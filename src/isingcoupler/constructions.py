"""Provably bounded pulse-sequence constructions, built from flip masks.

Two routes are provided.  A biclique is a uniform-weight complete bipartite
coupling V1 x V2 with the remaining vertices V3 idle; ``biclique_rows``
realizes it with four rows given the masks of V2 and V3 (V1 is the rest).
Taking each edge as the biclique ({u}, {v}) yields an edge-by-edge
construction for arbitrary weighted graphs with at most 3m+1 rows after
merging.  For unweighted graphs, decomposing the edge set into at most n-1
edge-disjoint stars (a center vertex against its leaves) and realizing each
star as a biclique gives at most 3n-2 rows with total absolute strength at
most n-1.  Each construction collects all its rows as integer counts of one
unit and merges them once, through ``pulses.merge_rows`` as ``canonicalize``
does: edge by edge in units of 1/(4d) over the ``integer_units`` of the
weights, the union of stars in integer units of mu/4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .graphs import Graph, integer_units
from .pulses import PulseSequence, merge_rows


def _biclique_template(v2_mask: int, v3_mask: int) -> list[tuple[int, int]]:
    """The four (mask, sign) rows of ``biclique_rows``, whose strengths are
    sign * mu/4."""
    # Lemma-style template: the rows flip V3, V2 and V3, nothing, and V2
    # (never V1), with strengths +-mu/4.  A V1 x V2 pair gets the same sign
    # product from all four rows; every other pair gets two of each sign.
    return [(v3_mask, 1), (v2_mask | v3_mask, -1), (0, 1), (v2_mask, -1)]


def biclique_rows(v2_mask: int, v3_mask: int, mu) -> list[tuple[int, Fraction]]:
    """Four (mask, strength) rows realizing weight mu on every V1 x V2 pair
    and 0 elsewhere, where V1 holds the qubits in neither mask."""
    if v2_mask & v3_mask:
        raise ValueError("V2 and V3 must be disjoint")
    quarter = Fraction(mu) / 4
    return [(mask, sign * quarter) for mask, sign in _biclique_template(v2_mask, v3_mask)]


def weighted_edge_by_edge(g: Graph) -> PulseSequence:
    """Realize any weighted graph one edge at a time; at most 3m+1 rows.

    Each edge (u, v, z) is the biclique ({u}, {v}) of weight z taking four
    rows; the no-flip row (mask 0) shared by every edge merges during
    canonicalization, leaving at most 3m+1 rows.
    """
    full = (1 << g.n) - 1
    weights, d = integer_units([z for _, _, z in g.edges])
    rows = [(mask, sign * w) for (u, v, _), w in zip(g.edges, weights)
            for mask, sign in _biclique_template(1 << v, full ^ (1 << u | 1 << v))]
    return merge_rows(g.n, rows, Fraction(1, 4 * d))


def _require_uniform(g: Graph) -> Fraction:
    mu = g.uniform_weight()
    if mu is None:
        raise ValueError("construction requires a uniform-weight graph")
    return mu


def greedy_star_order(g: Graph) -> list[int]:
    """Vertex order that peels off the largest residual star first.

    While an edge remains, takes the vertex of maximum residual degree
    (``max`` keeps the first, so ties go to the lowest index) and removes
    its edges, which leaves it none; the vertices never taken follow in
    index order.
    """
    _require_uniform(g)
    adj = [g.neighbors(v) for v in range(g.n)]
    order = []
    while any(adj):
        center = max(range(g.n), key=lambda v: len(adj[v]))
        order.append(center)
        for u in adj[center]:
            adj[u].discard(center)
        adj[center] = set()
    return order + [v for v in range(g.n) if v not in order]


def union_of_stars(g: Graph, order: Sequence[int] | None = None) -> PulseSequence:
    """Realize a uniform-weight graph as a union of star bicliques.

    The star at order position i is centered on order[i] and holds exactly
    the edges from that vertex to vertices later in the order, so the stars
    are edge-disjoint, cover every edge, and number at most n-1.  Uses the
    greedy order by default.  Each star takes 4 rows and canonicalization
    merges the shared no-flip rows, so the result has at most 3n-2 rows
    and, for unit weights, total absolute strength at most n-1.
    """
    mu = _require_uniform(g)
    if order is None:
        order = greedy_star_order(g)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    full = (1 << g.n) - 1
    position = {v: i for i, v in enumerate(order)}
    rows = []
    for i, center in enumerate(order):
        leaves = sum(1 << u for u in g.neighbors(center) if position[u] > i)
        if leaves:
            rows += _biclique_template(leaves, full ^ (1 << center | leaves))
    return merge_rows(g.n, rows, mu / 4)
