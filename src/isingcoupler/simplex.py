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

``solve_lp`` solves in floats, and the float engine (``float_solve``)
hands over only its phase-2 basis.  ``solve_lp`` re-solves that basis
exactly and checks it (``certify_basis``); a basis that is feasible but not
optimal is pivoted on exactly (``exact_resume``); anything else, including
a float "infeasible" or a float engine that fails, is solved from scratch
in Fractions (``exact_solve``).  The result is an exact rational optimum.
An exact phase 1 that ends above 0 raises SimplexError: the L1 programs
always have a feasible point.  All rules are deterministic, so identical
inputs give identical results.

Every exact solve of a linear system (the basis system B x = b and its
dual B^T y = c_B in ``certify_basis``, the change of basis in
``exact_resume``, and the L0 support systems of ``exactopt``) runs through
``_solve_integer``: fraction-free Gauss-Jordan elimination (Bareiss, Math.
Comp. 22, 1968) in Python integers, after each row is scaled to integers by
the lcm of its denominators.  A step on pivot p replaces each other entry x
by (p x - f y) / prev, with f the row's entry in the pivot column, y the
pivot row's entry and prev the previous pivot.  By Sylvester's identity the
result is a minor of the scaled system, so the division is exact, and no
gcd is taken.  The elimination ends with x = num / d for integer num and
the last pivot d != 0, so the signs of x are those of num * sign(d), and
Fractions are built only for a solution that is returned.
"""

from __future__ import annotations

import math
import operator
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
        sol = _solve_integer(self.T[:, basis], [*self.T.T, self.xB])
        if sol is None:
            return False
        d, nums = sol
        xB = [Fraction(v, d) for v in nums[-1]]
        if any(v < 0 or (j >= self.ns and v != 0) for v, j in zip(xB, basis)):
            return False
        self.T = np.array([[Fraction(v, d) for v in col] for col in nums[:-1]], dtype=object).T
        self.xB = np.array(xB, dtype=object)
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


def float_solve(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> list[int] | None:
    """Two-phase float simplex: the phase-2 basis, or None when phase 1 ends
    infeasible or the engine raises SimplexError."""
    tab = _Tableau(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    try:
        if not tab.phase_one():
            return None
        tab.phase_two(np.asarray(cost, dtype=float))
    except SimplexError:
        return None
    return list(tab.basis)


def _solve_integer(mat, rhs_cols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of mat.x = rhs.

    mat has m >= s rows of s entries; mat and the right-hand sides hold ints
    or Fractions.  Returns (d, nums), one integer list per right-hand side,
    with mat . num = d * rhs and d != 0, or None when the columns of mat are
    dependent or some right-hand side is inconsistent.
    """
    s = len(mat[0])
    rows = []
    for r, row in enumerate(mat):
        entries = [*row, *(rhs[r] for rhs in rhs_cols)]
        # a row times a nonzero constant has the same solutions
        scale = math.lcm(*(v.denominator for v in entries))
        rows.append([v.numerator * (scale // v.denominator) for v in entries])
    # Each row holds its entries in the columns not yet pivoted on; the
    # eliminated columns hold the latest pivot on the diagonal and 0
    # elsewhere.  After k pivots every entry is a minor of the scaled
    # [mat | rhs], of order k in the pivot rows and k+1 in the others
    # (Sylvester's identity), so the division by prev is exact.
    prev = 1
    for c in range(s):
        piv = next((r for r in range(c, len(rows)) if rows[r][0]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        top = rows[c]
        p, tail = top[0], top[1:]
        for r, row in enumerate(rows):
            f = row[0]
            rows[r] = tail if r == c else [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
        prev = p
    if any(any(row) for row in rows[s:]):
        return None
    return prev, [list(col) for col in zip(*rows[:s])]


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
    primal = _solve_integer(list(zip(*cols)), [b])
    if primal is None:
        return None
    d, (num,) = primal
    # x_B = num / d, so x_B >= 0 where num * sign(d) >= 0
    sign = 1 if d > 0 else -1
    if any(v * sign < 0 or (j >= ns and v) for v, j in zip(num, basis)):
        return None
    # c * scale is integral; B nonsingular, so B^T y = c_B * scale has the
    # solution y = y_num / d_y (cols are the rows of B^T), and the reduced
    # cost of column j, times d_y * scale, is c_j * scale * d_y - y_num . a_j
    scale = math.lcm(*(v.denominator for v in c))
    c_int = [v.numerator * (scale // v.denominator) for v in c]
    d_y, (y,) = _solve_integer(cols, [[c_int[j] if j < ns else 0 for j in basis]])
    sign_y = 1 if d_y > 0 else -1
    basic = set(basis)
    for j, a_j in enumerate(zip(*a_rows)):
        if j not in basic and sign_y * (c_int[j] * d_y - sum(map(operator.mul, y, a_j))) < 0:
            return "resume"
    x = [Fraction(0)] * ns
    for v, j in zip(num, basis):
        if j < ns:
            x[j] = Fraction(v, d)
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


def solve_lp(a_rows, b, c) -> LPResult:
    """Solve min c.x s.t. a_rows x = b, x >= 0, exactly.

    a_rows (at least one row), b and c hold Fractions or ints.  The float
    engine's basis is certified with ``certify_basis``; a basis that is
    primal feasible but not optimal is resumed with ``exact_resume``.
    Whatever cannot be certified or resumed, and every float "infeasible"
    or failure, is solved from scratch by ``exact_solve``.
    """
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    basis = float_solve(np.array([[float(v) for v in row] for row in a_rows]),
                        np.array([float(v) for v in b]), np.array([float(v) for v in c]))
    if basis is not None:
        cert = certify_basis(a_rows, b, c, basis)
        if cert == "resume":
            res = exact_resume(a_rows, b, c, basis)
            if res is not None:
                return res
        elif cert is not None:
            x, obj = cert
            return LPResult(obj, x)
    return exact_solve(a_rows, b, c)
