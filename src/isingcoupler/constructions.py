"""Provably bounded pulse-sequence constructions.

Two routes are provided.  Any uniform-weight complete bipartite coupling
(a biclique, possibly with isolated vertices) is realized by exactly four
rows, which yields an edge-by-edge construction for arbitrary weighted graphs
with at most 3m+1 rows after merging.  For unweighted graphs, decomposing the
edge set into at most n-1 edge-disjoint stars and realizing each star as a
biclique gives at most 3n-2 rows with total absolute strength at most n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import Graph
from .pulses import PulseSequence, canonicalize, compose


@dataclass(frozen=True)
class Biclique:
    """Complete bipartite coupling V1 x V2 of uniform weight mu; V3 idle."""

    v1: frozenset[int]
    v2: frozenset[int]
    v3: frozenset[int]
    mu: Fraction

    def __post_init__(self):
        if self.v1 & self.v2 or self.v1 & self.v3 or self.v2 & self.v3:
            raise ValueError("vertex sets must be pairwise disjoint")

    @classmethod
    def of(cls, v1, v2, n: int, mu) -> "Biclique":
        """Biclique with V3 inferred as the remaining vertices of 0..n-1."""
        s1, s2 = frozenset(v1), frozenset(v2)
        return cls(s1, s2, frozenset(range(n)) - s1 - s2, Fraction(mu))


@dataclass(frozen=True)
class Star:
    """A center vertex coupled to each of its leaves."""

    center: int
    leaves: frozenset[int]

    def __post_init__(self):
        if not self.leaves:
            raise ValueError("star needs at least one leaf")
        if self.center in self.leaves:
            raise ValueError("center cannot be a leaf")


def biclique_sequence(b: Biclique, n: int) -> PulseSequence:
    """Four rows realizing weight mu on every V1 x V2 pair and 0 elsewhere."""
    members = b.v1 | b.v2 | b.v3
    if members != frozenset(range(n)):
        raise ValueError("V1, V2, V3 must partition the n vertices")
    v2 = sum(1 << q for q in b.v2)
    v3 = sum(1 << q for q in b.v3)
    # Lemma-style template: the rows flip V3, V2 and V3, nothing, and V2
    # (never V1), with strengths +-mu/4.  A V1 x V2 pair gets the same sign
    # product from all four rows; every other pair gets two of each sign.
    quarter = b.mu / 4
    return PulseSequence.from_pairs(
        n, [(v3, quarter), (v2 | v3, -quarter), (0, quarter), (v2, -quarter)]
    )


def weighted_edge_by_edge(g: Graph) -> PulseSequence:
    """Realize any weighted graph one edge at a time; at most 3m+1 rows.

    Each edge (u, v, z) is a trivial biclique ({u}, {v}) of weight z taking
    four rows; the all-ones row shared by every edge merges during
    canonicalization, leaving at most 3m+1 rows.
    """
    seq = PulseSequence.empty(g.n)
    for u, v, z in g.edges:
        seq = compose(seq, biclique_sequence(Biclique.of({u}, {v}, g.n, z), g.n))
    return canonicalize(seq)


def _require_uniform(g: Graph) -> Fraction:
    if g.m == 0:
        return Fraction(1)
    mu = g.uniform_weight()
    if mu is None:
        raise ValueError("construction requires a uniform-weight graph")
    return mu


def star_decomposition(g: Graph, order: Sequence[int]) -> list[Star]:
    """Partition the edges into stars along a vertex order.

    The star at order position i is centered on order[i] and contains exactly
    the edges from that vertex to vertices later in the order, so the stars
    are edge-disjoint, cover every edge, and number at most n-1 (centers with
    no qualifying edges contribute no star).
    """
    _require_uniform(g)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    position = {v: i for i, v in enumerate(order)}
    stars = []
    for i, center in enumerate(order):
        leaves = {u for u in g.neighbors(center) if position[u] > i}
        if leaves:
            stars.append(Star(center, frozenset(leaves)))
    return stars


def greedy_star_order(g: Graph) -> list[int]:
    """Vertex order that peels off the largest residual star first.

    Repeatedly picks the vertex of maximum residual degree (ties broken by
    lowest index) and removes its remaining edges; vertices never picked are
    appended in index order.
    """
    _require_uniform(g)
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


def union_of_stars(g: Graph, order: Sequence[int] | None = None) -> PulseSequence:
    """Realize a uniform-weight graph as a union of star bicliques.

    Uses the greedy order by default.  At most n-1 stars of 4 rows each are
    emitted and canonicalization merges the shared all-ones rows, so the
    result has at most 3n-2 rows and, for unit weights, total absolute
    strength at most n-1.
    """
    mu = _require_uniform(g)
    if order is None:
        order = greedy_star_order(g)
    seq = PulseSequence.empty(g.n)
    for star in star_decomposition(g, order):
        b = Biclique.of({star.center}, star.leaves, g.n, mu)
        seq = compose(seq, biclique_sequence(b, g.n))
    return canonicalize(seq)

