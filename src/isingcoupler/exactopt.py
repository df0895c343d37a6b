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

Elimination runs incrementally and exactly in Python integers, with the
fraction-free step of Bareiss (Math. Comp. 22, 1968), on b scaled to
integers.  Adding a column v with pivot row r (its first nonzero entry)
replaces every other candidate column u, and the residual of b, by
(v[r] u - u[r] v) / prev, with prev the pivot of the column added before v
(1 at the root).  By Sylvester's identity each entry of a reduced column is
then the minor of [support | column] on the support's pivot rows, in order,
and the entry's own row, so the division is exact and:

- a column that reduces to zero lies in the span of the support, and is
  skipped as dependent;
- a residual that reduces to zero means b lies in the span, so the support
  realizes the graph; ``simplex._solve_integer`` then solves the support
  system once for the exact strengths.  A nonzero residual is a miss.

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


def _cut_columns(n: int) -> dict[int, list[int]]:
    """The cut matrix by columns: each canonical row mask (bit 0 clear, in
    increasing order) to its coupling signs in ``pair_order(n)``."""
    pairs = pair_order(n)
    return {t: [coupling_sign(t, i, j) for i, j in pairs] for t in range(0, 1 << n, 2)}


def _default_incumbent(g: Graph) -> PulseSequence:
    if g.uniform_weight() is not None or g.m == 0:
        return union_of_stars(g)
    return weighted_edge_by_edge(g)


class _Timeout(Exception):
    pass


def _eliminate(u: list[int], v: list[int], piv: int, prev: int) -> list[int]:
    """(v[piv] * u - u[piv] * v) // prev: one fraction-free step clearing
    entry piv of u, exact because every result entry is a minor (see the
    module docstring)."""
    f, g = v[piv], u[piv]
    return [(f * a - g * x) // prev for a, x in zip(u, v)]


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
    b = list(couplings(g))
    cols = _cut_columns(g.n)
    scale = math.lcm(*(v.denominator for v in b))
    b_int = [v.numerator * (scale // v.denominator) for v in b]

    incumbent = canonicalize(_default_incumbent(g))
    best_entries = list(zip(incumbent.rows, incumbent.strengths))
    best = len(best_entries)
    nodes = 0

    def extend(support, prev, cands, floats, residual, r_float, width):
        """Try each of the first width candidate columns on top of support.

        cands holds (t, v) with v column t reduced against the support's
        columns and nonzero; residual is b_int reduced the same way, and
        prev is the pivot of the support's last column (1 at the root).
        floats and r_float are the same reductions done by float
        projection, used only to order the candidates of each child (None
        when no child expands further in the full pass).
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
            rest = _eliminate(residual, v, piv, prev)
            if not any(rest):
                d, (num,) = _solve_integer([*zip(*(cols[s] for s in trial))], [b])
                best = len(trial)
                best_entries = [(s, Fraction(w, d)) for s, w in zip(trial, num)]
                return
            if len(trial) + 1 < best:
                reduced = [(t2, _eliminate(v2, v, piv, prev)) for t2, v2 in cands[pos + 1:]]
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
                extend(trial, v[piv], children, child_floats, rest, r_child, width)

    b_float = np.array([float(v) for v in b])
    cands, floats = _ordered(list(cols.items()), np.array(list(cols.values()), dtype=float),
                             b_float)
    status = OPTIMAL
    try:
        for width in (*_PROBE_WIDTHS, None):
            extend([], 1, cands, floats, b_int, b_float, width)
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
    apply to the L0 search only.  The largest L1 solve (n=8) takes tens of
    milliseconds when the float basis certifies; the exact fallbacks of
    ``simplex`` take up to about a second to resume and a few seconds to
    solve from scratch at n=8.
    """
    _check_size(g)
    start = time.monotonic()
    n = g.n
    cols = _cut_columns(n)
    masks = list(cols)
    # W_t = W+_t - W-_t: column t of the cut matrix, then its negation
    a_rows = [[x for q in row for x in (q, -q)] for row in zip(*cols.values())]
    if not a_rows:
        return OptResult(
            PulseSequence.empty(n), Fraction(0), "l1", OPTIMAL, 0, 0.0
        )
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

