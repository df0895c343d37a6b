"""Weighted graphs as compilation targets: parsing, generators, couplings.

A target coupling graph is an undirected simple graph with nonzero rational
edge weights.  Weights stay exact ``Fraction`` values end to end so that
compiled pulse sequences can be verified by equality rather than tolerance.
Vertex indices are 0-based everywhere, including the text format.

The couplings of a graph on n vertices are one Fraction per qubit pair
i < j, in ``pair_order(n)``: the edge weight, or 0 for a non-edge.  That
tuple is the target b of the cut-matrix system Q W = b, and
``pulses.evaluate`` returns a sequence's couplings in the same order.

Exact numbers are read and scaled in one place each.  ``read_fraction`` is
the one reader of a number's text (edge-list weights, the CLI's exact flags
and every number of a pulse file, whether a string or a JSON number); it
refuses a literal whose numerator or denominator would pass Python's digit
limit for integer text, by its exponent before it builds anything.
``integer_units`` turns exact values into integers in one common unit, the
one lcm of denominators taken in the package: the exact solvers,
``pulses.evaluate`` and ``canonicalize``, the constructions and the Max-Cut
scan all count in it.

``relabelings(n)`` tabulates every vertex permutation with the pair each
sends each pair to.  It keys the graph classes here (one numpy pass over
the table per edge bitmask: 6 ms for every mask at n=5, 0.3 s at n=6) and
the coupling symmetries of ``exactopt``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import SplitMix64

# 2^(n(n-1)/2) labeled graphs, keyed in 0.3 s at n = 6, where the exact L0
# search proves all 156 classes in well under a minute; at n = 7 keying the
# 2^21 masks alone would take about 100 s.
MAX_ENUMERATION_N = 6


class GraphParseError(ValueError):
    """Malformed edge-list text; message carries the 1-based line number."""


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph on vertices 0..n-1.

    Edges are stored as (u, v, weight) triples with u < v, sorted, with no
    duplicates and no zero weights (a zero coupling is a non-edge).  An
    unweighted graph is one whose weights are all 1.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v, z in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if z == 0:
                raise ValueError(f"edge ({u},{v}) has zero weight")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, object]]) -> "Graph":
        """Build a graph, normalizing edge order and weight type."""
        normalized = []
        for u, v, z in edges:
            if u > v:
                u, v = v, u
            normalized.append((u, v, Fraction(z)))
        normalized.sort(key=lambda e: (e[0], e[1]))
        return cls(n, tuple(normalized))

    @classmethod
    def unweighted(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls.from_edges(n, [(u, v, 1) for u, v in pairs])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.unweighted(n, itertools.combinations(range(n), 2))

    @property
    def m(self) -> int:
        return len(self.edges)

    def uniform_weight(self) -> Fraction | None:
        """The common edge weight, or None if weights differ; 1 for an
        edgeless graph, which is unweighted."""
        weights = {z for _, _, z in self.edges} or {Fraction(1)}
        return weights.pop() if len(weights) == 1 else None

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for a, b, _ in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out


def read_fraction(text: str) -> Fraction:
    """The exact value of a literal ``Fraction`` reads (an integer, a decimal
    with an optional exponent, or p/q), or ValueError (ZeroDivisionError for
    q = 0).  A literal whose numerator or denominator has more digits than
    ``sys.get_int_max_str_digits()`` is refused: one with a larger exponent
    before anything is built, the others when str() refuses them, as it
    would on output."""
    limit = sys.get_int_max_str_digits()
    _, e, exponent = text.lower().partition("e")
    if e and limit and abs(int(exponent)) > limit:
        raise ValueError(f"exponent of {text!r} beyond {limit} digits")
    value = Fraction(text)
    str(value.numerator), str(value.denominator)  # ValueError past the limit
    return value


def integer_units(values) -> tuple[list[int], int]:
    """(ints, d): the exact values (Fractions or ints) times d, the least
    common multiple of their denominators (1 for no values)."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Format: a header line ``n <count>`` followed by one edge per line,
    ``u v [weight]``; the weight defaults to 1 and may be an integer, a
    decimal, or a ``p/q`` rational.  ``#`` starts a comment.  Zero-weight
    lines are accepted and dropped (they denote non-edges).
    """
    n = None
    edges: list[tuple[int, int, Fraction]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise GraphParseError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {tokens[1]!r}")
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive")
            continue
        if len(tokens) not in (2, 3):
            raise GraphParseError(f"line {lineno}: expected 'u v [weight]'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: bad vertex index")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex index out of range [0,{n})")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
        z = Fraction(1)
        if len(tokens) == 3:
            try:
                z = read_fraction(tokens[2])
            except (ValueError, ZeroDivisionError):
                raise GraphParseError(f"line {lineno}: bad weight {tokens[2]!r}")
        if z != 0:
            edges.append((u, v, z))
    if n is None:
        raise GraphParseError("line 1: missing header 'n <count>'")
    return Graph.from_edges(n, edges)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list (weight omitted when it is 1)."""
    lines = [f"n {g.n}"]
    for u, v, z in g.edges:
        lines.append(f"{u} {v}" if z == 1 else f"{u} {v} {z}")
    return "\n".join(lines) + "\n"


def check_weights(weight_set: Iterable[object]) -> list[Fraction]:
    """The weights as Fractions, or ValueError when one is zero (a zero
    coupling is a non-edge, not a weight)."""
    weights = [Fraction(w) for w in weight_set]
    if any(w == 0 for w in weights):
        raise ValueError("weight_set must not contain zero")
    return weights


def random_er_graph(
    n: int,
    p: float,
    weight_set: Sequence[object] = (),
    seed: int = 0,
) -> Graph:
    """Erdos-Renyi G(n, p) with optional weights drawn uniformly from a set.

    Each unordered pair is included independently with probability p, visiting
    pairs in lexicographic order and drawing from SplitMix64(seed); an empty
    weight_set means unit weights.  Fixed (n, p, weight_set, seed) always
    yields the same graph.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability {p} outside [0, 1]")
    weights = check_weights(weight_set)
    rng = SplitMix64(seed)
    edges = []
    for u in range(n - 1):
        for v in range(u + 1, n):
            if rng.next_float() < p:
                z = weights[rng.next_index(len(weights))] if weights else Fraction(1)
                edges.append((u, v, z))
    return Graph.from_edges(n, edges)


def pair_order(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of 0..n-1 in lexicographic order: the bit
    order of an edge bitmask and the row order of the cut matrix."""
    return list(itertools.combinations(range(n), 2))


def couplings(g: Graph) -> tuple[Fraction, ...]:
    """The coupling of every pair in pair_order(g.n): its edge weight, or 0."""
    weight = {(u, v): z for u, v, z in g.edges}
    return tuple(weight.get(uv, Fraction(0)) for uv in pair_order(g.n))


@functools.cache
def relabelings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex permutation of 0..n-1 and where it sends each pair.

    Returns (perms, pair_maps), one row per permutation pi in lexicographic
    order (the order of ``itertools.permutations``): perms holds
    (pi 0, ..., pi (n-1)), and pair_maps holds, for each pair (i, j) of
    ``pair_order(n)``, the index there of the pair {pi i, pi j}.  Built on
    the first call at each n and cached as read-only uint8 arrays: at n=8,
    40,320 rows and 1.5 MB.
    """
    pairs = pair_order(n)
    index = np.zeros((n, n), dtype=np.uint8)
    for k, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = k
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    pair_maps = index[perms[:, first], perms[:, second]]
    perms.flags.writeable = pair_maps.flags.writeable = False
    return perms, pair_maps


def canonical_edge_mask(mask: int, n: int) -> int:
    """Smallest edge bitmask over all vertex relabelings (isomorphism key);
    a mask outside [0, 2^C(n,2)) is a ValueError."""
    pair_maps = relabelings(n)[1]
    if not 0 <= mask < 1 << pair_maps.shape[1]:
        raise ValueError(f"edge mask {mask} outside [0, 2^{pair_maps.shape[1]}) for n={n}")
    bits = [k for k in range(pair_maps.shape[1]) if mask >> k & 1]
    return int(np.left_shift(1, pair_maps[:, bits], dtype=np.int64).sum(axis=1).min())


def enumerate_labeled_graphs(n: int, distinct_only: bool = False) -> Iterator[Graph]:
    """Yield every labeled unweighted graph on n vertices, in bitmask order.

    With distinct_only, keep one representative per isomorphism class (the
    graph whose edge bitmask is minimal over all vertex permutations).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_ENUMERATION_N:
        raise ValueError(
            f"n={n} too large to enumerate (limit {MAX_ENUMERATION_N})"
        )
    pairs = pair_order(n)
    for mask in range(1 << len(pairs)):
        if distinct_only and canonical_edge_mask(mask, n) != mask:
            continue
        yield Graph.unweighted(
            n, [uv for bit, uv in enumerate(pairs) if mask >> bit & 1]
        )
