"""Self-contained linear programming for the exact optimizer.

Solves  min c.x  subject to  A x = b,  0 <= x_j <= ub_j  (ub_j may be
None/inf for no upper bound) with a two-phase primal simplex under Bland's
rule, for bounded variables.  Two engines share the algorithm:

- a float engine (numpy, 1e-9 feasibility tolerance) used for speed, and
- an exact engine over ``Fraction`` values.

A float basis can be re-solved and certified in exact arithmetic
(``certify_basis``); when the certificate fails, the exact engine resumes
pivoting from that basis or restarts from scratch.  ``certify_or_repair``
implements that staging for every caller.  ``solve_lp`` always runs the
float engine first and hands its outcome to ``certify_or_repair``, so it
returns an exact rational optimum or a certified infeasibility.  All
pivoting rules are deterministic, so identical inputs give identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

LOWER, UPPER, BASIC = 0, 1, 2
FLOAT_TOL = 1e-9
_PIVOT_EPS = 1e-11
_MAX_ITERS = 200000


class SimplexError(RuntimeError):
    pass


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible"
    objective: Fraction | None
    x: list[Fraction] | None


@dataclass
class FloatOutcome:
    feasible: bool
    objective: float
    x: np.ndarray | None  # structural values
    basis: list[int]
    vstat: np.ndarray
    phase1_objective: float


# ---------------------------------------------------------------- float ----


class _FloatState:
    """Bounded-variable tableau simplex over numpy floats."""

    def __init__(self, a: np.ndarray, b: np.ndarray, ub: np.ndarray):
        self.m, self.ns = a.shape
        self.nv = self.ns + self.m
        self.ub = np.concatenate([ub, np.full(self.m, np.inf)])
        signs = np.where(b >= 0, 1.0, -1.0)
        self.art_signs = signs
        self.T = np.hstack([a * signs[:, None], np.eye(self.m)])
        self.xB = np.abs(b.astype(float))
        self.basis = list(range(self.ns, self.nv))
        self.vstat = np.full(self.nv, LOWER, dtype=np.int8)
        self.vstat[self.ns:] = BASIC

    def fix_artificials(self):
        self.ub[self.ns:] = 0.0

    def run(self, cost: np.ndarray):
        for _ in range(_MAX_ITERS):
            red = cost - cost[self.basis] @ self.T
            fixed = self.ub == 0.0
            eligible = ((self.vstat == LOWER) & ~fixed & (red < -FLOAT_TOL)) | (
                (self.vstat == UPPER) & ~fixed & (red > FLOAT_TOL)
            )
            idx = np.flatnonzero(eligible)
            if idx.size == 0:
                return
            e = int(idx[0])  # Bland: lowest index
            self._step(e, 1 if self.vstat[e] == LOWER else -1)
        raise SimplexError("iteration limit exceeded")

    def _step(self, e: int, sigma: int):
        d = self.T[:, e]
        t_best = self.ub[e]
        block = -1
        block_hits_upper = False
        for r in range(self.m):
            delta = sigma * d[r]
            if delta > _PIVOT_EPS:
                limit = self.xB[r] / delta
                hits_upper = False
            elif delta < -_PIVOT_EPS and np.isfinite(self.ub[self.basis[r]]):
                limit = (self.ub[self.basis[r]] - self.xB[r]) / (-delta)
                hits_upper = True
            else:
                continue
            if limit < t_best - FLOAT_TOL or (
                limit < t_best + FLOAT_TOL
                and block >= 0
                and self.basis[r] < self.basis[block]
            ):
                t_best, block, block_hits_upper = limit, r, hits_upper
        if not np.isfinite(t_best):
            raise SimplexError("LP is unbounded")
        t_best = max(float(t_best), 0.0)
        self.xB -= t_best * sigma * d
        if block < 0:
            self.vstat[e] = UPPER if sigma == 1 else LOWER
            return
        leaving = self.basis[block]
        self.vstat[leaving] = UPPER if block_hits_upper else LOWER
        self.vstat[e] = BASIC
        self.basis[block] = e
        self.xB[block] = t_best if sigma == 1 else self.ub[e] - t_best
        piv = self.T[block, e]
        self.T[block] /= piv
        col = self.T[:, e].copy()
        col[block] = 0.0
        self.T -= np.outer(col, self.T[block])

    def extract_x(self) -> np.ndarray:
        x = np.where(self.vstat[: self.ns] == UPPER, self.ub[: self.ns], 0.0)
        for r in range(self.m):
            if self.basis[r] < self.ns:
                x[self.basis[r]] = self.xB[r]
        return x

    def phase1_objective(self) -> float:
        return float(
            sum(self.xB[r] for r in range(self.m) if self.basis[r] >= self.ns)
        )


def float_solve(a: np.ndarray, b: np.ndarray, ub: np.ndarray, cost: np.ndarray) -> FloatOutcome:
    """Two-phase float simplex; never raises on infeasibility."""
    st = _FloatState(a, b, ub)
    scale = max(1.0, float(np.abs(b).sum()))
    cost1 = np.concatenate([np.zeros(st.ns), np.ones(st.m)])
    st.run(cost1)
    p1 = st.phase1_objective()
    if p1 > FLOAT_TOL * scale:
        return FloatOutcome(False, 0.0, None, list(st.basis), st.vstat.copy(), p1)
    st.fix_artificials()
    cost2 = np.concatenate([cost, np.zeros(st.m)])
    st.run(cost2)
    x = st.extract_x()
    return FloatOutcome(True, float(cost @ x), x, list(st.basis), st.vstat.copy(), p1)


# ---------------------------------------------------------------- exact ----


class _ExactState:
    """Dense tableau simplex over Fractions (mirrors _FloatState)."""

    def __init__(self, a_rows, b, ub):
        self.m = len(a_rows)
        self.ns = len(a_rows[0]) if self.m else 0
        self.nv = self.ns + self.m
        self.ub = list(ub) + [None] * self.m
        self.art_signs = [1 if v >= 0 else -1 for v in b]
        self.T = []
        self.xB = []
        self.basis = []
        self.vstat = [LOWER] * self.ns + [BASIC] * self.m
        for r in range(self.m):
            sign = self.art_signs[r]
            row = [Fraction(sign * v) for v in a_rows[r]]
            row += [Fraction(1) if i == r else Fraction(0) for i in range(self.m)]
            self.T.append(row)
            self.xB.append(abs(Fraction(b[r])))
            self.basis.append(self.ns + r)

    def fix_artificials(self):
        for j in range(self.ns, self.nv):
            self.ub[j] = Fraction(0)

    def _is_fixed(self, j):
        return self.ub[j] is not None and self.ub[j] == 0

    def run(self, cost):
        for _ in range(_MAX_ITERS):
            cb = [cost[j] for j in self.basis]
            entering = -1
            sigma = 0
            for j in range(self.nv):
                if self.vstat[j] == BASIC or self._is_fixed(j):
                    continue
                rj = cost[j]
                for r in range(self.m):
                    if cb[r] != 0 and self.T[r][j] != 0:
                        rj -= cb[r] * self.T[r][j]
                if self.vstat[j] == LOWER and rj < 0:
                    entering, sigma = j, 1
                    break
                if self.vstat[j] == UPPER and rj > 0:
                    entering, sigma = j, -1
                    break
            if entering < 0:
                return
            self._step(entering, sigma)
        raise SimplexError("iteration limit exceeded")

    def _step(self, e, sigma):
        d = [self.T[r][e] for r in range(self.m)]
        t_best = self.ub[e]  # travel to the opposite bound
        block = -1
        block_hits_upper = False
        for r in range(self.m):
            delta = sigma * d[r]
            if delta > 0:
                limit = self.xB[r] / delta
                hits_upper = False
            elif delta < 0 and self.ub[self.basis[r]] is not None:
                limit = (self.ub[self.basis[r]] - self.xB[r]) / (-delta)
                hits_upper = True
            else:
                continue
            if t_best is None or limit < t_best or (
                limit == t_best and block >= 0 and self.basis[r] < self.basis[block]
            ):
                t_best, block, block_hits_upper = limit, r, hits_upper
        if t_best is None:
            raise SimplexError("LP is unbounded")
        if t_best != 0:
            for r in range(self.m):
                if d[r] != 0:
                    self.xB[r] -= t_best * sigma * d[r]
        if block < 0:
            self.vstat[e] = UPPER if sigma == 1 else LOWER
            return
        leaving = self.basis[block]
        self.vstat[leaving] = UPPER if block_hits_upper else LOWER
        self.vstat[e] = BASIC
        self.basis[block] = e
        self.xB[block] = t_best if sigma == 1 else self.ub[e] - t_best
        piv = self.T[block][e]
        prow = [v / piv for v in self.T[block]]
        self.T[block] = prow
        for r in range(self.m):
            if r == block:
                continue
            f = self.T[r][e]
            if f != 0:
                row = self.T[r]
                self.T[r] = [row[j] - f * prow[j] for j in range(self.nv)]

    def extract(self, cost):
        x = [Fraction(0)] * self.nv
        for j in range(self.nv):
            if self.vstat[j] == UPPER and self.ub[j]:
                x[j] = self.ub[j]
        for r in range(self.m):
            x[self.basis[r]] = self.xB[r]
        obj = sum((cost[j] * x[j] for j in range(self.nv) if x[j] != 0), Fraction(0))
        return x, obj

    def phase1_objective(self):
        obj = Fraction(0)
        for r in range(self.m):
            if self.basis[r] >= self.ns:
                obj += self.xB[r]
        return obj


def _signed_dot(y, col):
    """sum_r y[r] * col[r] for col entries in {-1, 0, +1} (or small ints)."""
    total = Fraction(0)
    for r, v in enumerate(col):
        if v == 1:
            total += y[r]
        elif v == -1:
            total -= y[r]
        elif v:
            total += v * y[r]
    return total


def _solve_square(mat, rhs_list):
    """Exact Gaussian elimination; solves mat.x = rhs for each rhs column.

    Returns None when the matrix is singular.
    """
    m = len(mat)
    aug = [[Fraction(v) for v in mat[r]] + [Fraction(rhs[r]) for rhs in rhs_list] for r in range(m)]
    width = m + len(rhs_list)
    for c in range(m):
        piv = None
        for r in range(c, m):
            if aug[r][c] != 0:
                piv = r
                break
        if piv is None:
            return None
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        if pv != 1:
            aug[c] = [v / pv for v in aug[c]]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                row = aug[r]
                pivrow = aug[c]
                aug[r] = [row[j] - f * pivrow[j] for j in range(width)]
    return [[aug[r][m + k] for r in range(m)] for k in range(len(rhs_list))]


def certify_basis(colfn, m, ns, b, cost, ub, basis, vstat, art_signs):
    """Exactly re-solve a basis and check LP optimality conditions.

    colfn(j) yields the exact column (ints or Fractions) for structural
    variables j < ns; artificial columns are derived from art_signs.  ub has
    length ns + m (artificial entries typically 0 after phase 1, or None for
    a phase-1 certificate).  Returns (x, objective) on success, "resume" if
    the basis is primal feasible but not dual optimal, or None when it is
    singular or primal infeasible.
    """
    nv = ns + m

    def fullcol(j):
        if j < ns:
            return colfn(j)
        out = [0] * m
        out[j - ns] = art_signs[j - ns]
        return out

    bmat = [[0] * m for _ in range(m)]
    for c, j in enumerate(basis):
        cj = fullcol(j)
        for r in range(m):
            bmat[r][c] = cj[r]
    rhs = [Fraction(v) for v in b]
    for j in range(nv):
        if vstat[j] == UPPER and ub[j]:
            cj = fullcol(j)
            u = ub[j]
            for r in range(m):
                if cj[r]:
                    rhs[r] -= cj[r] * u
    sol = _solve_square(bmat, [rhs])
    if sol is None:
        return None
    xb = sol[0]
    for r in range(m):
        u = ub[basis[r]]
        if xb[r] < 0 or (u is not None and xb[r] > u):
            return None
    bt = [[bmat[c][r] for c in range(m)] for r in range(m)]
    ysol = _solve_square(bt, [[cost[j] for j in basis]])
    if ysol is None:
        return None
    y = ysol[0]
    for j in range(nv):
        if vstat[j] == BASIC:
            continue
        if ub[j] is not None and ub[j] == 0:
            continue  # fixed variable, no optimality condition
        red = cost[j] - _signed_dot(y, fullcol(j))
        if vstat[j] == LOWER and red < 0:
            return "resume"
        if vstat[j] == UPPER and red > 0:
            return "resume"
    x = [Fraction(0)] * nv
    for j in range(nv):
        if vstat[j] == UPPER and ub[j]:
            x[j] = ub[j]
    for r in range(m):
        x[basis[r]] = xb[r]
    obj = sum((cost[j] * x[j] for j in range(nv) if x[j] != 0), Fraction(0))
    return x, obj


def exact_resume(a_rows, b, c, ub, basis, vstat):
    """Continue exact phase-2 pivoting from a (primal feasible) basis.

    Returns an LPResult, or None when the basis cannot be rebuilt exactly
    (caller should restart from scratch).
    """
    st = _ExactState(a_rows, b, ub)
    st.fix_artificials()
    colfn_cols = []
    for j in range(st.nv):
        if j < st.ns:
            colfn_cols.append([a_rows[r][j] for r in range(st.m)])
        else:
            col = [0] * st.m
            col[j - st.ns] = st.art_signs[j - st.ns]
            colfn_cols.append(col)
    bmat = [[colfn_cols[basis[c]][r] for c in range(st.m)] for r in range(st.m)]
    all_cols = _solve_square(bmat, colfn_cols)
    if all_cols is None:
        return None
    for r in range(st.m):
        st.T[r] = [all_cols[j][r] for j in range(st.nv)]
    rhs = [Fraction(v) for v in b]
    for j in range(st.nv):
        u = st.ub[j] if j < st.ns else Fraction(0)
        if vstat[j] == UPPER and u:
            cj = colfn_cols[j]
            for r in range(st.m):
                if cj[r]:
                    rhs[r] -= cj[r] * u
    xb = _solve_square(bmat, [rhs])
    if xb is None:
        return None
    st.xB = xb[0]
    st.basis = list(basis)
    st.vstat = [int(v) for v in vstat]
    for r in range(st.m):
        u = st.ub[st.basis[r]]
        if st.xB[r] < 0 or (u is not None and st.xB[r] > u):
            return None
    cost2 = list(c) + [Fraction(0)] * st.m
    st.run(cost2)
    x, obj = st.extract(cost2)
    return LPResult("optimal", obj, x[: st.ns])


def exact_solve(a_rows, b, c, ub) -> LPResult:
    """Two-phase exact simplex from scratch."""
    st = _ExactState(a_rows, b, ub)
    cost1 = [Fraction(0)] * st.ns + [Fraction(1)] * st.m
    st.run(cost1)
    if st.phase1_objective() > 0:
        return LPResult("infeasible", None, None)
    st.fix_artificials()
    cost2 = [Fraction(v) for v in c] + [Fraction(0)] * st.m
    st.run(cost2)
    x, obj = st.extract(cost2)
    return LPResult("optimal", obj, x[: st.ns])


# --------------------------------------------------------------- staged ----


def certify_or_repair(a_rows, b, c, ub, out: FloatOutcome) -> LPResult:
    """Exact optimum or certified infeasibility of an LP from a float outcome.

    Same LP and argument types as ``exact_solve``; ``out`` is the float
    engine's result on it.  An infeasible outcome is accepted only when its
    phase-1 basis certifies a positive infeasibility exactly.  A feasible
    one is certified with ``certify_basis``; a basis that is primal feasible
    but not optimal is resumed with ``exact_resume``.  Whatever cannot be
    certified or resumed is solved from scratch by ``exact_solve``.
    """
    m, ns = len(a_rows), len(c)
    art_signs = [1 if v >= 0 else -1 for v in b]

    def colfn(j):
        return [a_rows[r][j] for r in range(m)]

    if not out.feasible:
        cost1 = [Fraction(0)] * ns + [Fraction(1)] * m
        ub1 = list(ub) + [None] * m
        cert = certify_basis(colfn, m, ns, b, cost1, ub1, out.basis, out.vstat, art_signs)
        if cert not in (None, "resume") and cert[1] > 0:
            return LPResult("infeasible", None, None)
        return exact_solve(a_rows, b, c, ub)
    cost2 = list(c) + [Fraction(0)] * m
    ub2 = list(ub) + [Fraction(0)] * m
    cert = certify_basis(colfn, m, ns, b, cost2, ub2, out.basis, out.vstat, art_signs)
    if cert == "resume":
        res = exact_resume(a_rows, b, c, ub, out.basis, [int(v) for v in out.vstat])
        if res is not None:
            return res
    elif cert is not None:
        x, obj = cert
        return LPResult("optimal", obj, x[:ns])
    return exact_solve(a_rows, b, c, ub)


def solve_lp(a_rows, b, c, ub) -> LPResult:
    """Solve min c.x s.t. a_rows x = b, 0 <= x <= ub, exactly.

    a_rows entries, b, c, and finite ub entries must be Fractions or ints.
    The float engine runs first and ``certify_or_repair`` turns its outcome
    into an exact result.
    """
    m = len(a_rows)
    ns = len(c)
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    ub = [None if u is None else Fraction(u) for u in ub]
    if m == 0:
        x = []
        obj = Fraction(0)
        for j in range(ns):
            if c[j] < 0:
                if ub[j] is None:
                    raise SimplexError("LP is unbounded")
                x.append(ub[j])
                obj += c[j] * ub[j]
            else:
                x.append(Fraction(0))
        return LPResult("optimal", obj, x)

    af = np.array([[float(v) for v in row] for row in a_rows])
    bf = np.array([float(v) for v in b])
    ubf = np.array([np.inf if u is None else float(u) for u in ub])
    cf = np.array([float(v) for v in c])
    try:
        out = float_solve(af, bf, ubf, cf)
    except SimplexError:
        return exact_solve(a_rows, b, c, ub)
    return certify_or_repair(a_rows, b, c, ub, out)
