"""Exact minimization of pulse-sequence size (L0) and strength (L1).

Because negating a row never changes the realized coupling, only the
2^(n-1) rows with leading sign +1 need to be considered, indexed by the
(n-1)-bit mask of the remaining signs.  Column t of the cut matrix Q holds
the coupling signs of row t, one entry per qubit pair, and b holds the
target couplings; a sequence realizes the graph exactly when Q W = b.

L1 is a plain linear program in the strengths, solved by
``simplex.solve_lp`` (float first, then certified in rationals).

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
  support system in Fractions, which also gives the exact strengths; a
  candidate that fails is searched below like a miss.

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
from .graphs import Graph, to_adjacency
from .pulses import FlipRow, PulseSequence, canonicalize, sequence_to_json
# float_solve is unused here; perfbench's tracing test still checks that this
# module holds the traced simplex.float_solve, and perfbench changes only
# together with the benchmark.
from .simplex import float_solve, solve_lp  # noqa: F401

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
INFEASIBLE = "infeasible"


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


def _pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n)]


def _coupling_sign(row_index: int, i: int, j: int) -> int:
    mask = row_index << 1
    return -1 if (mask >> i ^ mask >> j) & 1 else 1


def _sequence_from_support(n: int, entries: list[tuple[int, Fraction]]) -> PulseSequence:
    rows = tuple(FlipRow.from_mask(idx << 1, n) for idx, _ in entries)
    return PulseSequence(n, rows, tuple(w for _, w in entries))


def _incumbent_entries(seq: PulseSequence) -> list[tuple[int, Fraction]]:
    seq = canonicalize(seq)
    return [(row.mask >> 1, w) for row, w in zip(seq.rows, seq.strengths)]


def _default_incumbent(g: Graph) -> PulseSequence:
    if g.uniform_weight() is not None or g.m == 0:
        return union_of_stars(g)
    return weighted_edge_by_edge(g)


def _solve_support_system(cols: list[list[int]], b: list[Fraction]):
    """Exact solution of sum_t W_t * cols[t] = b (free variables at 0).

    Returns the W list, or None when the system is inconsistent.
    """
    m, s = len(b), len(cols)
    aug = [[Fraction(cols[t][r]) for t in range(s)] + [b[r]] for r in range(m)]
    piv_cols: list[int] = []
    row = 0
    for c in range(s):
        piv = None
        for r in range(row, m):
            if aug[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][c]
        if pv != 1:
            aug[row] = [v / pv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][c] != 0:
                f = aug[r][c]
                rr = aug[r]
                pr = aug[row]
                aug[r] = [rr[k] - f * pr[k] for k in range(s + 1)]
        piv_cols.append(c)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][s] != 0:
            return None
    w = [Fraction(0)] * s
    for r, c in enumerate(piv_cols):
        w[c] = aug[r][s]
    return w


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

    Returns (status, entries, nodes, elapsed) with entries the (row index,
    strength) pairs of the best support found.
    """
    start = time.monotonic()
    deadline = start + time_limit
    pairs = _pair_list(g.n)
    target = to_adjacency(g).rows
    b = [target[i][j] for i, j in pairs]
    cols = [[_coupling_sign(t, i, j) for i, j in pairs] for t in range(1 << (g.n - 1))]
    scale = math.lcm(*(v.denominator for v in b))
    b_mod = [int(v * scale) % _PRIME for v in b]

    best_entries = _incumbent_entries(_default_incumbent(g))
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
    cands, floats = _ordered(list(enumerate(cols)), np.array(cols, dtype=float), b_float)
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


def _check_solve_args(g: Graph, time_limit: float):
    if g.n > MAX_EXACT_N:
        raise ValueError(
            f"n={g.n} too large for an exact solve (limit {MAX_EXACT_N}); "
            "use a construction (union_of_stars or weighted_edge_by_edge)"
        )
    check_time_limit(time_limit)


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
    _check_solve_args(g, time_limit)
    status, entries, nodes, elapsed = _search_supports(g, time_limit)
    return OptResult(
        sequence=_sequence_from_support(g.n, entries),
        objective=Fraction(len(entries)),
        objective_kind="l0",
        status=status,
        nodes_explored=nodes,
        wall_time=elapsed,
    )


def solve_l1(g: Graph, time_limit: float = DEFAULT_TIME_LIMIT) -> OptResult:
    """Minimize the total absolute strength realizing g (a pure LP).

    The objective bounds each strength directly, and the program is solved
    to exact rational optimality.
    """
    _check_solve_args(g, time_limit)
    start = time.monotonic()
    n = g.n
    pairs = _pair_list(n)
    k = 1 << (n - 1)
    if not pairs:
        return OptResult(
            PulseSequence.empty(n), Fraction(0), "l1", OPTIMAL, 0, 0.0
        )
    target = to_adjacency(g).rows
    a_rows = []
    for i, j in pairs:
        row = []
        for idx in range(k):
            q = _coupling_sign(idx, i, j)
            row.extend((q, -q))
        a_rows.append(row)
    cost = [Fraction(1)] * (2 * k)
    ub = [None] * (2 * k)
    b = [target[i][j] for i, j in pairs]
    res = solve_lp(a_rows, b, cost, ub)
    if res.status != "optimal":
        return OptResult(
            PulseSequence.empty(n), None, "l1", INFEASIBLE, 0,
            time.monotonic() - start,
        )
    entries = []
    for idx in range(k):
        w = res.x[2 * idx] - res.x[2 * idx + 1]
        if w != 0:
            entries.append((idx, w))
    seq = _sequence_from_support(n, entries)
    return OptResult(
        sequence=seq,
        objective=seq.l1,
        objective_kind="l1",
        status=OPTIMAL,
        nodes_explored=0,
        wall_time=time.monotonic() - start,
    )

