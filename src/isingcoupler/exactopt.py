"""Exact minimization of pulse-sequence size (L0) and strength (L1).

Because negating a row never changes the realized coupling, only the
2^(n-1) rows with leading sign +1 need to be considered, indexed by the
(n-1)-bit mask of the remaining signs.  Over that complete row set:

- minimizing L1 is a plain linear program in the strengths, solved exactly;
- minimizing L0 is a mixed-integer program (binary activation b_i per row,
  strengths bounded by |W_i| <= b_i * M) solved here by best-bound
  branch-and-bound on the b_i with the continuous relaxation providing
  lower bounds.

The search is float-guided for speed, but every decision that discards a
subtree (bound prune, infeasibility, integral closure) is certified in exact
rational arithmetic by ``simplex.certify_or_repair``, and incumbent strengths
are exact solutions of the coupling equations, so reported optima are exact.
The L1 program goes through ``simplex.solve_lp`` (float first, then
certified) at every n.  Instances above MAX_EXACT_N qubits are refused; the
constructions in ``constructions`` cover them.  M must upper-bound the
optimal strengths for the formulation to be exact; both the provable bound
(via Hadamard's inequality) and the practical sum-of-weights choice are
available.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import union_of_stars, weighted_edge_by_edge
from .graphs import Graph, to_adjacency
from .pulses import FlipRow, PulseSequence, canonicalize, sequence_to_json
from .simplex import certify_or_repair, float_solve, solve_lp

MAX_EXACT_N = 8
DEFAULT_TIME_LIMIT = 600.0

_SUPPORT_EPS = 1e-7
_PRUNE_MARGIN = 1e-7

THEOREM_BOUND = "theorem_bound"
PRACTICAL_SUM = "practical_sum"

OPTIMAL = "optimal"
INCUMBENT_TIMEOUT = "incumbent_timeout"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class BigM:
    """Bound on |strength| entries making the L0 program exact."""

    value: Fraction
    kind: str

    def __post_init__(self):
        if self.kind not in (THEOREM_BOUND, PRACTICAL_SUM):
            raise ValueError(f"unknown big-M kind {self.kind!r}")
        if self.value <= 0:
            raise ValueError("big-M must be positive")


@dataclass
class OptResult:
    sequence: PulseSequence
    objective: Fraction | None
    objective_kind: str  # "l0" | "l1"
    status: str
    nodes_explored: int
    wall_time: float
    m_kind: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "objective": None if self.objective is None else str(self.objective),
                "objective_kind": self.objective_kind,
                "sequence": json.loads(sequence_to_json(self.sequence)),
                "nodes_explored": self.nodes_explored,
                "wall_time_ms": round(self.wall_time * 1000, 3),
                "m_kind": self.m_kind,
            }
        )


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def big_m(g: Graph, kind: str = PRACTICAL_SUM) -> BigM:
    """Strength bound for the L0 program.

    practical_sum is the sum of absolute edge weights (1 for an empty
    graph).  theorem_bound is the provable worst-case bound
    (3n-2)^((3n-1)/2) for unit-weight graphs and Z*(3m)^((3m+1)/2)
    otherwise, rounded up to the next integer square root when the
    half-integer power is irrational (a larger M is still valid).
    """
    if kind == PRACTICAL_SUM:
        total = g.total_abs_weight()
        return BigM(total if total > 0 else Fraction(1), kind)
    if kind != THEOREM_BOUND:
        raise ValueError(f"unknown big-M kind {kind!r}")
    if all(abs(z) == 1 for _, _, z in g.edges):
        base, power = 3 * g.n - 2, 3 * g.n - 1
        value = Fraction(_ceil_sqrt(base**power))
    else:
        z_total = g.total_abs_weight()
        base, power = 3 * g.m, 3 * g.m + 1
        value = z_total * _ceil_sqrt(base**power)
    return BigM(value if value > 0 else Fraction(1), kind)


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


class _NodeRelaxation:
    """Per-solve relaxation data shared by all branch-and-bound nodes."""

    def __init__(self, pairs, target_rows, k, m_value):
        self.k = k
        self.m_value = m_value
        self.mf = float(m_value)
        self.q = [[_coupling_sign(t, i, j) for t in range(k)] for (i, j) in pairs]
        self.qf = np.array(self.q, dtype=float)
        self.b = [target_rows[i][j] for (i, j) in pairs]
        self.bf = np.array([float(v) for v in self.b])
        self.m_rows = len(pairs)

    def _active(self, zeros_mask):
        return [t for t in range(self.k) if not zeros_mask >> t & 1]

    def float_node(self, zeros_mask, ones_mask):
        active = self._active(zeros_mask)
        qa = self.qf[:, active]
        a = np.empty((self.m_rows, 2 * len(active)))
        a[:, 0::2] = qa
        a[:, 1::2] = -qa
        ub = np.full(2 * len(active), self.mf)
        free = np.array([not ones_mask >> t & 1 for t in active], dtype=float)
        cost = np.repeat(free / self.mf, 2)
        return float_solve(a, self.bf, ub, cost), active

    def _exact_cost_ub(self, active, ones_mask):
        inv_m = 1 / self.m_value
        cost = []
        for t in active:
            coef = Fraction(0) if ones_mask >> t & 1 else inv_m
            cost.extend((coef, coef))
        ub = [self.m_value] * (2 * len(active))
        return cost, ub

    def _exact_rows(self, active):
        rows = []
        for r in range(self.m_rows):
            row = []
            for t in active:
                row.extend((self.q[r][t], -self.q[r][t]))
            rows.append(row)
        return rows

    def certify_node(self, active, ones_mask, outcome):
        """Exact LP value and strengths for a node, from its float outcome.

        Returns ("infeasible", None) or ("optimal", (objective, weights)).
        """
        cost, ub = self._exact_cost_ub(active, ones_mask)
        res = certify_or_repair(self._exact_rows(active), self.b, cost, ub, outcome)
        if res.status != "optimal":
            return "infeasible", None
        weights = {}
        for pos, t in enumerate(active):
            w = res.x[2 * pos] - res.x[2 * pos + 1]
            if w != 0:
                weights[t] = w
        return "optimal", (res.objective, weights)

    def support_weights(self, support):
        """Exact strengths over a candidate support, or None."""
        cols = [[self.q[r][t] for r in range(self.m_rows)] for t in support]
        w = _solve_support_system(cols, self.b)
        if w is None:
            return None
        return {t: wt for t, wt in zip(support, w) if wt != 0}

    def minimize_support(self, support):
        """Greedy one-pass removal of redundant columns from a support.

        Keeps the realized coupling exact and strengths within M at every
        step; used to sharpen rounding incumbents.
        """
        weights = self.support_weights(sorted(support))
        if weights is None or any(abs(w) > self.m_value for w in weights.values()):
            return None
        support = sorted(weights)
        idx = 0
        while idx < len(support):
            trial = support[:idx] + support[idx + 1:]
            wt = self.support_weights(trial)
            if wt is not None and all(abs(v) <= self.m_value for v in wt.values()):
                support = sorted(wt)
            else:
                idx += 1
        return self.support_weights(support)


def _minimize_l0(g: Graph, m: BigM, time_limit: float):
    """Best-bound branch-and-bound over row-activation binaries.

    Seeded with the construction incumbent.  Branches on the most fractional
    activation (ties toward the lowest row index); every relaxation solution
    also serves as a rounding incumbent, since its support is a feasible
    activation pattern.
    """
    start = time.monotonic()
    deadline = start + time_limit
    pairs = _pair_list(g.n)
    target = to_adjacency(g).rows

    entries = _incumbent_entries(_default_incumbent(g))
    if any(abs(w) > m.value for _, w in entries):
        raise ValueError("incumbent strength exceeds big-M")
    best_entries = entries
    best_obj = len(entries)
    nodes = 0

    if not pairs:
        return OPTIMAL, [], 0, nodes, time.monotonic() - start

    relax = _NodeRelaxation(pairs, target, 1 << (g.n - 1), m.value)

    def try_candidate(weights_exact, minimize=False):
        nonlocal best_obj, best_entries
        if not all(abs(w) <= m.value for w in weights_exact.values()):
            return
        if not minimize and len(weights_exact) >= best_obj:
            return
        smaller = relax.minimize_support(sorted(weights_exact))
        if smaller is not None and len(smaller) < len(weights_exact):
            weights_exact = smaller
        if len(weights_exact) < best_obj:
            best_obj = len(weights_exact)
            best_entries = sorted(weights_exact.items())

    def pick_branch_float(weights, ones_mask):
        branch_t, branch_score = -1, -1.0
        for t in sorted(weights):
            if ones_mask >> t & 1:
                continue
            b_frac = abs(weights[t]) / relax.mf
            if _SUPPORT_EPS < b_frac < 1 - _SUPPORT_EPS:
                score = min(b_frac, 1.0 - b_frac)
                if score > branch_score + 1e-12:
                    branch_score, branch_t = score, t
        return branch_t

    def pick_branch_exact(weights, ones_mask):
        branch_t, branch_score = -1, None
        for t in sorted(weights):
            if ones_mask >> t & 1:
                continue
            b_frac = abs(weights[t]) / m.value
            if 0 < b_frac < 1:
                score = min(b_frac, 1 - b_frac)
                if branch_score is None or score > branch_score:
                    branch_score, branch_t = score, t
        return branch_t

    # one-pass support reduction of the construction seed
    seeded = relax.minimize_support([idx for idx, _ in entries])
    if seeded is not None and len(seeded) < best_obj:
        best_obj = len(seeded)
        best_entries = sorted(seeded.items())

    counter = 0
    # heap entries: (bound key, tiebreak, zeros, ones, exact parent bound)
    heap = [(0.0, counter, 0, 0, Fraction(0))]
    status = OPTIMAL
    while heap:
        if time.monotonic() > deadline:
            status = INCUMBENT_TIMEOUT
            break
        key, _, zeros_mask, ones_mask, parent_exact = heapq.heappop(heap)
        if parent_exact is not None and parent_exact > best_obj - 1:
            continue  # rigorous: certified parent bound already prunes
        outcome, active = relax.float_node(zeros_mask, ones_mask)
        nodes += 1
        ones_count = ones_mask.bit_count()
        exact_data = None

        if not outcome.feasible:
            verdict, data = relax.certify_node(active, ones_mask, outcome)
            if verdict == "infeasible":
                continue
            exact_data = data
        else:
            bound_f = ones_count + outcome.objective
            x = outcome.x
            weights_f = {}
            for pos, t in enumerate(active):
                w = x[2 * pos] - x[2 * pos + 1]
                if abs(w) > _SUPPORT_EPS:
                    weights_f[t] = w
            if len(weights_f) < best_obj or nodes == 1:
                exact_w = relax.support_weights(sorted(weights_f))
                if exact_w is not None:
                    try_candidate(exact_w, minimize=nodes == 1)
            needs_certify = bound_f > best_obj - 1 + _PRUNE_MARGIN
            branch_t = pick_branch_float(weights_f, ones_mask)
            if branch_t < 0:
                needs_certify = True  # integral closure must be exact
            if needs_certify:
                verdict, data = relax.certify_node(active, ones_mask, outcome)
                if verdict == "infeasible":
                    continue
                exact_data = data

        if exact_data is not None:
            obj_exact, weights = exact_data
            bound = ones_count + obj_exact
            assert parent_exact is None or bound >= parent_exact, "bound regressed"
            try_candidate(weights)
            if bound > best_obj - 1:
                continue
            branch_t = pick_branch_exact(weights, ones_mask)
            if branch_t < 0:
                continue  # relaxation integral: closure certified exact
            child_key = float(bound)
            child_exact = bound
        else:
            child_key = ones_count + outcome.objective
            child_exact = None

        counter += 1
        heapq.heappush(
            heap, (child_key, counter, zeros_mask | 1 << branch_t, ones_mask, child_exact)
        )
        counter += 1
        heapq.heappush(
            heap, (child_key, counter, zeros_mask, ones_mask | 1 << branch_t, child_exact)
        )
    return status, best_entries, best_obj, nodes, time.monotonic() - start


def _check_solve_args(g: Graph, time_limit: float):
    if g.n > MAX_EXACT_N:
        raise ValueError(
            f"n={g.n} too large for an exact solve (limit {MAX_EXACT_N}); "
            "use a construction (union_of_stars or weighted_edge_by_edge)"
        )
    if time_limit <= 0:
        raise ValueError("time limit must be positive")


def solve_l0(
    g: Graph, m: BigM | None = None, time_limit: float = DEFAULT_TIME_LIMIT
) -> OptResult:
    """Minimize the number of rows realizing g over all canonical rows.

    The search is seeded with the star construction (uniform weights) or the
    edge-by-edge construction; on timeout the best incumbent found so far is
    returned.
    """
    _check_solve_args(g, time_limit)
    if m is None:
        m = big_m(g, PRACTICAL_SUM)
    status, entries, objective, nodes, elapsed = _minimize_l0(g, m, time_limit)
    return OptResult(
        sequence=_sequence_from_support(g.n, entries),
        objective=Fraction(objective),
        objective_kind="l0",
        status=status,
        nodes_explored=nodes,
        wall_time=elapsed,
        m_kind=m.kind,
    )


def solve_l1(g: Graph, time_limit: float = DEFAULT_TIME_LIMIT) -> OptResult:
    """Minimize the total absolute strength realizing g (a pure LP).

    No big-M is needed: the objective bounds each strength directly, and the
    program is solved to exact rational optimality.
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

