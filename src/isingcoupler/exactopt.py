"""Exact minimization of pulse-sequence size (L0) and strength (L1).

Because complementing a row never changes the realized coupling, only the
2^(n-1) canonical rows need to be considered: the masks with bit 0 clear.
The cut matrix Q has one column per canonical row, holding its coupling
signs (``pulses.coupling_sign``), one entry per qubit pair in
``graphs.pair_order``, and b = ``graphs.couplings(g)`` holds the target
couplings in the same pair order; a sequence realizes the graph exactly
when Q W = b, that is when ``pulses.evaluate`` returns b.

L1 is a linear program: each strength is split as W_t = W+_t - W-_t with
both parts nonnegative, and sum(W+ + W-) is minimized subject to
Q (W+ - W-) = b.  It is always feasible, since the cut matrix spans every
target (the constructions realize any graph), and ``simplex.solve_lp``
solves it in floats and certifies the float basis exactly, in integers.

L0 is the smallest k for which b lies in the span of k columns of Q.  A
minimum-row realization has linearly independent columns (a dependent one
could be folded into the others), so ``solve_l0`` searches depth first over
independent column sets, bounded by the best size found so far minus one;
the construction from ``constructions`` sets the first bound.  Strengths
are unbounded, which is the problem the paper poses: a big-M bound on |W|
is only a device of the mixed-integer formulation, and a small M changes
the answer while a provable one (already 316228 at n=4) ruins float
conditioning.

Each node orders its remaining candidates, and a child may only add the
candidates after it, so every set is reached once whatever the order.  The
order is greedy, as in orthogonal matching pursuit: candidates come by how
much of the float residual of b (b projected off the support) they remove.
Passes that try only the first few candidates at each node run before the
full search; they find small supports early, which tightens the bound when
the full search cannot finish in time.  Floats only order the search; every
decision to skip, prune or accept is exact.

Elimination runs incrementally modulo the prime p = 2^127 - 1 in plain
Python integers, on b scaled to integers.  Each step is exact:

- A column that reduces to zero is dependent over Q as well, so it is
  skipped: a set of +-1 columns with r <= C(MAX_EXACT_N, 2) = 28 rows is
  independent over Q exactly when some r' x r' minor is nonzero, and by
  Hadamard's inequality every such minor is at most r'^(r'/2) <= 28^14 < p
  in size, so it is nonzero mod p too.
- A nonzero residual of b is a certified miss for any p: if b = Q_S w over
  Q, clearing the denominators of w by a minor of Q_S that is a unit mod p
  shows b = Q_S w' mod p.
- A zero residual is only a candidate.  It is confirmed by solving the
  support system over Q, which also gives the exact strengths; a candidate
  that fails is searched below like a miss.  The solve is the fraction-free
  integer elimination of ``simplex._solve_integer``: b is scaled to
  integers, and each division by the previous pivot is exact because every
  intermediate entry is a minor of the scaled system (Sylvester's identity).

Instances above MAX_EXACT_N qubits are refused; the constructions in
``constructions`` cover them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import union_of_stars, weighted_edge_by_edge
from .graphs import Graph, couplings, pair_order
from .pulses import PulseSequence, canonicalize, coupling_sign, sequence_to_json
# float_solve is unused here; perfbench's tracing test still checks that this
# module holds the traced simplex.float_solve, and perfbench changes only
# together with the benchmark.
from .simplex import _solve_integer, float_solve, solve_lp  # noqa: F401

MAX_EXACT_N = 8
DEFAULT_TIME_LIMIT = 600.0

_PRIME = 2**127 - 1
_MAX_PAIRS = MAX_EXACT_N * (MAX_EXACT_N - 1) // 2
# Hadamard: |minor| <= r^(r/2) <= _MAX_PAIRS^(_MAX_PAIRS/2) < _PRIME
assert _MAX_PAIRS**_MAX_PAIRS < _PRIME**2
# candidates tried per node in the passes before the full search
_PROBE_WIDTHS = (2, 3, 4)

OPTIMAL = "optimal"
INCUMBENT_TIMEOUT = "incumbent_timeout"


@dataclass
class OptResult:
    sequence: PulseSequence
    objective: Fraction | None
    objective_kind: str  # "l0" | "l1"
    status: str
    nodes_explored: int
    wall_time: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "objective": None if self.objective is None else str(self.objective),
                "objective_kind": self.objective_kind,
                "sequence": json.loads(sequence_to_json(self.sequence)),
                "nodes_explored": self.nodes_explored,
                "wall_time_ms": round(self.wall_time * 1000, 3),
            }
        )


def _canonical_rows(n: int) -> range:
    """The masks with bit 0 clear, in increasing order."""
    return range(0, 1 << n, 2)


def _default_incumbent(g: Graph) -> PulseSequence:
    if g.uniform_weight() is not None or g.m == 0:
        return union_of_stars(g)
    return weighted_edge_by_edge(g)


def _solve_support_system(cols: list[list[int]], b: list[Fraction]):
    """Exact solution W of sum_t W_t * cols[t] = b for independent columns.

    Returns the W list, or None when the system is inconsistent.
    """
    sol = _solve_integer(list(zip(*cols)), [b])
    if sol is None:
        return None
    d, (num,) = sol
    return [Fraction(v, d) for v in num]


class _Timeout(Exception):
    pass


def _eliminate(u: list[int], v: list[int], piv: int) -> list[int]:
    """v[piv] * u - u[piv] * v mod p: u with entry piv cleared, scaled by
    the unit v[piv], which changes neither its span nor its zero pattern."""
    f, g = v[piv], u[piv]
    if not g:
        return u
    return [(f * a - g * x) % _PRIME for a, x in zip(u, v)]


def _ordered(cands, floats, r_float):
    """Sort candidates by |<r, v>| / |v|, the share of the float residual r
    each would remove next (a heuristic: it orders the search, never prunes)."""
    norms = np.maximum(np.linalg.norm(floats, axis=1), 1e-12)
    order = np.argsort(-np.abs(floats @ r_float) / norms, kind="stable")
    return [cands[i] for i in order], floats[order]


def _search_supports(g: Graph, time_limit: float):
    """Smallest set of canonical rows whose span holds the target couplings.

    Returns (status, entries, nodes, elapsed) with entries the (row mask,
    strength) pairs of the best support found.
    """
    start = time.monotonic()
    deadline = start + time_limit
    pairs = pair_order(g.n)
    b = list(couplings(g))
    cols = {t: [coupling_sign(t, i, j) for i, j in pairs] for t in _canonical_rows(g.n)}
    scale = math.lcm(*(v.denominator for v in b))
    b_mod = [int(v * scale) % _PRIME for v in b]

    incumbent = canonicalize(_default_incumbent(g))
    best_entries = list(zip(incumbent.rows, incumbent.strengths))
    best = len(best_entries)
    nodes = 0

    def extend(support, cands, floats, residual, r_float, width):
        """Try each of the first width candidate columns on top of support.

        cands holds (t, v) with v column t reduced against the support's
        columns and nonzero; residual is b_mod reduced the same way.  floats
        and r_float are the same reductions done by float projection, used
        only to order the candidates of each child (None when no child
        expands further in the full pass).
        """
        nonlocal best, best_entries, nodes
        for pos, (t, v) in enumerate(cands[:width]):
            if len(support) + 1 >= best:
                return
            nodes += 1
            if time.monotonic() > deadline:
                raise _Timeout
            piv = next(r for r, a in enumerate(v) if a)
            trial = support + [t]
            rest = _eliminate(residual, v, piv)
            if not any(rest):
                w = _solve_support_system([cols[s] for s in trial], b)
                if w is not None:
                    best, best_entries = len(trial), list(zip(trial, w))
                    return
            if len(trial) + 1 < best:
                reduced = [(t2, _eliminate(v2, v, piv)) for t2, v2 in cands[pos + 1:]]
                kept = [i for i, (_, v2) in enumerate(reduced) if any(v2)]
                children = [reduced[i] for i in kept]
                child_floats = r_child = None
                # Last-level children of the full pass are all tried anyway.
                if width is not None or len(trial) + 2 < best:
                    u = floats[pos] / max(np.linalg.norm(floats[pos]), 1e-12)
                    later = floats[pos + 1:][kept]
                    r_child = r_float - (r_float @ u) * u
                    children, child_floats = _ordered(
                        children, later - np.outer(later @ u, u), r_child
                    )
                extend(trial, children, child_floats, rest, r_child, width)

    b_float = np.array([float(v) for v in b])
    cands, floats = _ordered(list(cols.items()), np.array(list(cols.values()), dtype=float),
                             b_float)
    status = OPTIMAL
    try:
        for width in (*_PROBE_WIDTHS, None):
            extend([], cands, floats, b_mod, b_float, width)
    except _Timeout:
        status = INCUMBENT_TIMEOUT
    return status, best_entries, nodes, time.monotonic() - start


def check_time_limit(time_limit: float) -> float:
    """Return time_limit, or raise ValueError when it is not positive."""
    if not time_limit > 0:
        raise ValueError(f"time limit must be positive, got {time_limit}")
    return time_limit


def _check_size(g: Graph):
    if g.n > MAX_EXACT_N:
        raise ValueError(
            f"n={g.n} too large for an exact solve (limit {MAX_EXACT_N}); "
            "use a construction (union_of_stars or weighted_edge_by_edge)"
        )


def solve_l0(g: Graph, time_limit: float = DEFAULT_TIME_LIMIT) -> OptResult:
    """Minimize the number of rows realizing g over all canonical rows.

    Strengths are unbounded rationals.  The support search (see the module
    docstring) is seeded with the star construction (uniform weights) or
    the edge-by-edge construction.  ``nodes_explored`` counts the columns
    tried on top of a support, in all passes.  When time_limit runs out,
    the best incumbent found so far is returned with status
    INCUMBENT_TIMEOUT; the greedy order makes it far smaller than the
    construction even where the search cannot finish (n=7).
    """
    _check_size(g)
    check_time_limit(time_limit)
    status, entries, nodes, elapsed = _search_supports(g, time_limit)
    return OptResult(
        sequence=PulseSequence.from_pairs(g.n, entries),
        objective=Fraction(len(entries)),
        objective_kind="l0",
        status=status,
        nodes_explored=nodes,
        wall_time=elapsed,
    )


def solve_l1(g: Graph) -> OptResult:
    """Minimize the total absolute strength realizing g (a pure LP).

    The objective bounds each strength directly, and the program is solved
    to exact rational optimality.  There is no time limit: time limits
    apply to the L0 search only, and the largest L1 solve (n=8) takes tens
    of milliseconds.
    """
    _check_size(g)
    start = time.monotonic()
    n = g.n
    pairs = pair_order(n)
    masks = _canonical_rows(n)
    if not pairs:
        return OptResult(
            PulseSequence.empty(n), Fraction(0), "l1", OPTIMAL, 0, 0.0
        )
    a_rows = []
    for i, j in pairs:
        row = []
        for mask in masks:
            q = coupling_sign(mask, i, j)
            row.extend((q, -q))
        a_rows.append(row)
    res = solve_lp(a_rows, couplings(g), [Fraction(1)] * (2 * len(masks)))
    entries = []
    for t, mask in enumerate(masks):
        w = res.x[2 * t] - res.x[2 * t + 1]
        if w != 0:
            entries.append((mask, w))
    seq = PulseSequence.from_pairs(n, entries)
    return OptResult(
        sequence=seq,
        objective=seq.l1,
        objective_kind="l1",
        status=OPTIMAL,
        nodes_explored=0,
        wall_time=time.monotonic() - start,
    )

