"""Exact linear programming for the L1 optimizer.

Solves  min c.x  subject to  A x = b,  x >= 0  with a two-phase primal
simplex under Bland's rule: the entering variable is the lowest-index one
with a negative reduced cost, and ties in the ratio test leave by the
lowest variable index.  Phase 1 starts from one artificial variable per row
(column sign(b_r) e_r) and minimizes their sum.  Phase 2 keeps them at 0:
an artificial may not enter, and a basic one blocks any step that would
move it off 0 in either direction.

One tableau class runs the algorithm on two number types:

- numpy float64, with tolerance FLOAT_TOL on reduced costs, ratio ties and
  the phase-1 sum, and no pivot on an entry below _PIVOT_EPS, for speed;
- numpy object arrays of ``Fraction`` values, with tolerance 0, exactly.

``solve_lp`` solves in floats and hands the outcome to
``certify_or_repair``.  That re-solves the float basis in Fractions and
checks it (``certify_basis``); a basis that is feasible but not optimal is
pivoted on exactly (``exact_resume``); anything else, including a float
"infeasible", is solved from scratch in Fractions (``exact_solve``).  The
result is an exact rational optimum.  An exact phase 1 that ends above 0
raises SimplexError: the L1 programs always have a feasible point.  All
rules are deterministic, so identical inputs give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9
_PIVOT_EPS = 1e-11
_MAX_ITERS = 200000


class SimplexError(RuntimeError):
    pass


@dataclass
class LPResult:
    objective: Fraction
    x: list[Fraction]


@dataclass
class FloatOutcome:
    feasible: bool
    objective: float
    x: np.ndarray | None  # structural values
    basis: list[int]


class _Tableau:
    """B^-1 [S A | I] and the basic values B^-1 |b|, for S = diag(sign b).

    Columns ns.. are the artificials.  A float64 ``a`` runs with FLOAT_TOL
    and _PIVOT_EPS, an object array of Fractions with both at 0.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.m, self.ns = a.shape
        exact = a.dtype == object
        self.tol, self.eps = (0, 0) if exact else (FLOAT_TOL, _PIVOT_EPS)
        self.one = Fraction(1) if exact else 1.0
        signs = np.where(b >= 0, self.one, -self.one)
        self.T = np.hstack([a * signs[:, None], np.eye(self.m, dtype=int) * self.one])
        self.xB = np.abs(b)
        self.basis = list(range(self.ns, self.ns + self.m))
        self.artificials_fixed = False

    def phase_one(self) -> bool:
        """Minimize the artificials' sum; True when it ends at 0 (within tol)."""
        scale = max(1.0, float(self.xB.sum()))
        self._run(np.r_[np.zeros(self.ns, int), np.ones(self.m, int)] * self.one)
        infeasibility = sum(self.xB[r] for r in range(self.m) if self.basis[r] >= self.ns)
        return infeasibility <= self.tol * scale

    def phase_two(self, c: np.ndarray):
        """Minimize c.x with the artificials held at 0."""
        self.artificials_fixed = True
        self._run(np.concatenate([c, np.zeros(self.m, int) * self.one]))

    def rebase(self, basis) -> bool:
        """Move to the given basis by exact elimination.  False when it is
        singular, or not primal feasible with its artificials at 0."""
        sol = _solve_square(self.T[:, basis], [*self.T.T, self.xB])
        if sol is None or any(
            v < 0 or (j >= self.ns and v != 0) for v, j in zip(sol[-1], basis)
        ):
            return False
        self.T = np.array(sol[:-1], dtype=object).T
        self.xB = np.array(sol[-1], dtype=object)
        self.basis = list(basis)
        return True

    def solution(self) -> np.ndarray:
        x = np.zeros(self.ns, dtype=self.T.dtype)
        for r, j in enumerate(self.basis):
            if j < self.ns:
                x[j] = self.xB[r]
        return x

    def _run(self, cost: np.ndarray):
        for _ in range(_MAX_ITERS):
            red = cost - cost[self.basis] @ self.T
            red[self.basis] = 0
            if self.artificials_fixed:
                red[self.ns:] = 0
            entering = np.flatnonzero(red < -self.tol)
            if entering.size == 0:
                return
            self._pivot(int(entering[0]))
        raise SimplexError("iteration limit exceeded")

    def _pivot(self, e: int):
        d = self.T[:, e]
        block, step = -1, None
        for r in range(self.m):
            # x_B[r] falls as x_e rises when d[r] > 0; a fixed artificial
            # must not rise either
            fixed = self.artificials_fixed and self.basis[r] >= self.ns
            if not (d[r] > self.eps or (fixed and d[r] < -self.eps)):
                continue
            limit = self.xB[r] / d[r]
            if block < 0 or limit < step - self.tol or (
                limit <= step + self.tol and self.basis[r] < self.basis[block]
            ):
                block, step = r, limit
        if block < 0:
            raise SimplexError("LP is unbounded")
        step = max(step, 0.0)  # only float rounding makes a limit negative
        self.xB -= step * d
        self.xB[block] = step
        self.basis[block] = e
        self.T[block] /= d[block]
        col = self.T[:, e].copy()
        col[block] = 0
        self.T -= np.outer(col, self.T[block])


def _fractions(values) -> np.ndarray:
    return np.vectorize(Fraction, otypes=[object])(np.array(values, dtype=object))


def _objective(c, x) -> Fraction:
    return sum((cj * xj for cj, xj in zip(c, x) if xj), Fraction(0))


def _optimum(tab: _Tableau, c) -> LPResult:
    x = [Fraction(v) for v in tab.solution()]
    return LPResult(_objective(c, x), x)


def float_solve(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> FloatOutcome:
    """Two-phase float simplex; reports infeasibility instead of raising it."""
    tab = _Tableau(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not tab.phase_one():
        return FloatOutcome(False, 0.0, None, list(tab.basis))
    cost = np.asarray(cost, dtype=float)
    tab.phase_two(cost)
    x = tab.solution()
    return FloatOutcome(True, float(cost @ x), x, list(tab.basis))


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


def certify_basis(a_rows, b, c, basis):
    """Exactly re-solve a phase-2 basis and check the optimality conditions.

    Basis entries j >= len(c) name the artificial of row j - len(c), whose
    value must be 0.  Returns (x, objective) when the basis is primal
    feasible and no reduced cost is negative, "resume" when it is feasible
    but not optimal, and None when it is singular or infeasible.
    """
    m, ns = len(a_rows), len(c)

    def column(j):
        if j < ns:
            return [row[j] for row in a_rows]
        out = [0] * m
        out[j - ns] = 1 if b[j - ns] >= 0 else -1
        return out

    cols = [column(j) for j in basis]
    sol = _solve_square([[col[r] for col in cols] for r in range(m)], [b])
    if sol is None or any(v < 0 or (j >= ns and v != 0) for v, j in zip(sol[0], basis)):
        return None
    # B nonsingular, so B^T y = c_B has a solution; cols are the rows of B^T
    y = _solve_square(cols, [[c[j] if j < ns else 0 for j in basis]])[0]
    basic = set(basis)
    for j in range(ns):
        if j not in basic and c[j] - _signed_dot(y, column(j)) < 0:
            return "resume"
    x = [Fraction(0)] * ns
    for v, j in zip(sol[0], basis):
        if j < ns:
            x[j] = v
    return x, _objective(c, x)


def exact_resume(a_rows, b, c, basis):
    """Continue exact phase-2 pivoting from a primal feasible basis.

    Returns an LPResult, or None when the basis is singular or infeasible
    (the caller should restart from scratch).
    """
    tab = _Tableau(_fractions(a_rows), _fractions(b))
    if not tab.rebase(basis):
        return None
    tab.phase_two(_fractions(c))
    return _optimum(tab, c)


def exact_solve(a_rows, b, c) -> LPResult:
    """Two-phase exact simplex from scratch."""
    tab = _Tableau(_fractions(a_rows), _fractions(b))
    if not tab.phase_one():
        raise SimplexError("LP is infeasible")
    tab.phase_two(_fractions(c))
    return _optimum(tab, c)


def certify_or_repair(a_rows, b, c, out: FloatOutcome) -> LPResult:
    """Exact optimum of an LP from the float engine's outcome on it.

    Same LP and argument types as ``exact_solve``.  A feasible outcome is
    certified with ``certify_basis``; a basis that is primal feasible but
    not optimal is resumed with ``exact_resume``.  Whatever cannot be
    certified or resumed, and every float "infeasible", is solved from
    scratch by ``exact_solve``.
    """
    if out.feasible:
        cert = certify_basis(a_rows, b, c, out.basis)
        if cert == "resume":
            res = exact_resume(a_rows, b, c, out.basis)
            if res is not None:
                return res
        elif cert is not None:
            x, obj = cert
            return LPResult(obj, x)
    return exact_solve(a_rows, b, c)


def solve_lp(a_rows, b, c) -> LPResult:
    """Solve min c.x s.t. a_rows x = b, x >= 0, exactly.

    a_rows (at least one row), b and c hold Fractions or ints.  The float
    engine runs first and ``certify_or_repair`` turns its outcome into an
    exact result.
    """
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    af = np.array([[float(v) for v in row] for row in a_rows])
    bf = np.array([float(v) for v in b])
    cf = np.array([float(v) for v in c])
    try:
        out = float_solve(af, bf, cf)
    except SimplexError:
        return exact_solve(a_rows, b, c)
    return certify_or_repair(a_rows, b, c, out)
