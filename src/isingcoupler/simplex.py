"""Exact linear programming for the L1 optimizer.

Solves  min c.x  subject to  A x = b,  x >= 0  with a two-phase primal
simplex.  Phase 1 starts from one artificial variable per row (column
sign(b_r) e_r) and minimizes their sum.  Phase 2 keeps them at 0: an
artificial may not enter, and a basic one blocks any step that would move
it off 0 in either direction.  Ties in the ratio test leave by the lowest
variable index.  Phase 2 enters by Bland's rule (Bland, Math. Oper. Res. 2,
1977), the lowest-index variable with a negative reduced cost, and so does
the exact engine throughout.

``float_solve`` pivots a float64 tableau, with tolerance FLOAT_TOL on
reduced costs, ratio ties and the phase-1 sum and no pivot on an entry below
_PIVOT_EPS, and hands over only its phase-2 basis.  Its phase 1 enters the
most negative reduced cost instead (Dantzig, Linear Programming and
Extensions, 1963), with a fall-back to Bland's rule after m degenerate
pivots in a row (see ``_Tableau``).  On the benchmark's 24 n=8 L1 programs
that cuts the pivots of a whole solve from 493 to 260 on average: 68 to 53
in phase 1, and 425 to 207 in phase 2 from the basis phase 1 ends on.  At
that size (28 rows) a pivot's cost is mostly per-call overhead, so the
ratio test reads the entering column and x_B once each as Python floats
and runs its sequential rule on them: Python floats divide and compare as
IEEE doubles, like numpy float64 scalars, so every choice is the same,
without a numpy scalar access per row.  The tableau stores once each
column that negates the column before it, as every W- column of the L1
program does its W+ column, and holds x_B as its last column, so at n=8 a
phase-1 pivot is one rank-one update, built in a buffer, of 28 x 157
entries instead of 28 x 284 entries and a separate x_B update.  IEEE
negation is exact, so every entry, step and basic value is the one a
tableau of all columns holds (``_Tableau`` says why, and when a reduced
cost may differ in its last bit).  ``solve_lp`` also takes the
float64 rows and costs from a caller that has them: ``exactopt`` builds
the L1 program, both forms, once per n.

The exact engine keeps only the basis (revised form): each step takes the
reduced costs from the dual system B^T y = c_B and the ratio test from
B [x_B | d] = [b | a_e].
``solve_lp`` has one exact path from the float basis: ``certify_basis``
proves it optimal from its float solves, or else ``exact_resume`` solves
it exactly and pivots on from it, with no pivot when it is optimal.  A
singular or infeasible basis, a float "infeasible", a float engine that
fails and a program beyond float64 range are solved exactly from the
artificial basis (``exact_solve``).  The result is an exact rational
optimum.  An exact phase 1 that ends with a nonzero artificial raises
SimplexError: the L1 programs always have a feasible point.  All rules are
deterministic, so identical inputs give identical results.

``certify_basis`` reads the basis's exact solutions off float64 solves and
proves them in integers, instead of solving again (Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 35, 2007; Gleixner, Steffy & Wolter, INFORMS J.
Comput. 28, 2016).  With s the lcm of b's denominators, one float inverse
gives u = B^-1 (s b) = s x_B and y = B^-T c_B.  ``_common_denominator``
finds d for u and e for y by continued fractions; its tolerance scales
with the vector's largest entry, since a float solve errs in proportion
to it, and it only picks candidates.  With p = rint(d u) and
r = rint(e y), float64 then checks B p = d s b, B^T r = e c_B, and that
rint(2^20 B^-1) B is strictly diagonally dominant, so that B is
nonsingular (Levy-Desplanques).  When all three hold, x_B = p / (d s) and
y = r / e are the basis's exact solutions: p >= 0 makes the basis
feasible, and r.a_j <= e c_j for every column j makes it optimal (weak
duality, as c.x = b.y).  A column with r.a_j > e c_j, a negative p and a
failed check all give None, which leaves the basis to ``exact_resume``.

The checks are exact.  A, c, s b, p, r and the rounded inverse hold
integers, and a guard checks, from their largest entries, that the terms
of every sum the checks form have magnitudes adding up to less than 2^53.
So every partial sum is an integer that float64 holds, float64 forms each
sum exactly, in any order, fused or not, and no float tolerance decides
any outcome.  When the guard or a check fails, an artificial is basic, or
A or c holds a non-integer, ``exact_resume`` solves both basis systems by
fraction-free elimination instead, and returns the same optimum when no
column can enter.  On the benchmark's 72 L1 programs the float
certificate decides all 72.

Every exact solve of a linear system (the basis systems of the exact
engine, and the L0 support systems of ``exactopt``) runs through
``_solve_integer``: fraction-free Gauss-Jordan elimination (Bareiss, Math.
Comp. 22, 1968) on the rows of [mat | rhs] in integers: row r's matrix
part times its own unit d_r (its ``integer_units``), and its right-hand
sides times d_r q, q the one unit of all right-hand sides.  The solutions
are then q x, and a tiny right-hand side (a weight of 1e-400) widens only
the right-hand-side fields, not every matrix field of its row.  Each row
is packed into one Python integer, the sum of x_i 2^(k i) over its
entries x_i, matrix entries lowest (``_pack``).  Rows are taken in order:
one whose matrix part is zero is skipped if the whole row is, and is
inconsistent otherwise; any other row v pivots on its first nonzero field
r, and ``_packed_step`` replaces every other row u by (v[r] u - u[r] v) /
prev, prev the previous pivot.  By Sylvester's identity
every entry is then, up to sign, a minor of the scaled system, so the
division is exact, and no gcd is taken.  Packing is linear, so the step
acts field by field; products may carry across fields, but decoding the
exact result needs only |x_i| < 2^(k-1): its lowest set bit lies in its
first nonzero field, and field i is ((U + 2^(k i - 1)) >> k i) mod 2^k,
re-centred, the half unit absorbing the borrow of negative lower fields.
``_field_width`` sets k by Hadamard's inequality on column norms, since a
minor holds some matrix columns and at most one other (a right-hand side).
After s pivots each pivot row holds the last pivot p on its diagonal and
num in its right-hand-side fields, and with d = p q, x = num / d; so x is
negative where num * d is, and the ratio of two entries of one solve is the
ratio of their numerators: Fractions are built only for those ratios and
for a solution that is returned.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import integer_units

FLOAT_TOL = 1e-9
_PIVOT_EPS = 1e-11
_MAX_ITERS = 200000
_EXACT = 2**53  # float64 holds every integer of smaller magnitude
_ROUNDING_TOL = 2.0**-32  # relative to a float solution's largest entry
_INVERSE_SCALE = 2.0**20  # the float inverse, scaled and rounded to integers


class SimplexError(RuntimeError):
    pass


@dataclass
class LPResult:
    objective: Fraction
    x: list[Fraction]


class _Tableau:
    """B^-1 [S A' | I | |b|] in float64, for S = diag(sign b): the stored
    columns A' of A, the artificials and, last, the basic values x_B.

    Column j of A reads stored column idx[j] times sign[j].  A column that
    is the exact negation of the column before it shares that column's
    stored one with the opposite sign, as every W- column of the L1 program
    does its W+ column, so that program stores half of its columns of A.
    IEEE negation is exact, and the pivot's division, products and
    differences commute with it, so each stored entry is the one a tableau
    of all columns holds, and the entering column sign[e] T[:, idx[e]] is
    that tableau's column e (up to the sign of a zero).  The basis, the
    entering column and every tie-break keep the indices of A; phase 2
    drops the artificials' columns and their idx and sign entries.

    Phase 1 enters the column with the most negative reduced cost
    (Dantzig's rule), which reaches a feasible basis in far fewer pivots
    than Bland's rule.  Dantzig's rule can cycle on a degenerate vertex, so
    after m consecutive pivots that move by at most FLOAT_TOL it falls back
    to Bland's lowest index until a pivot moves.  Phase 2 keeps Bland's
    rule: Dantzig's rule there was faster again, but on the benchmark's 72
    L1 programs it ended on denser optimal vertices (1,034 emitted rows
    against 828).

    The basis is an int array updated in place, so c_B is one fancy index.
    Reduced costs are recomputed as c - sign z[idx], z = c_B T, each
    iteration rather than carried as an updated row, which would round
    differently.  BLAS sums each column of z alike wherever it sits, except
    the few it sums apart when it splits the width into blocks: there a
    reduced cost can differ from the full tableau's in its last bit.  At
    n=7 and 8 the L1 reduced costs match the full tableau's bit for bit;
    elsewhere a few differ by at most 2e-15, far inside FLOAT_TOL, and the
    tests check that the bases are a full reference tableau's.  The
    ratio test is a Python loop over the column's floats (see the module
    docstring): a vectorized version (flatnonzero, min, then the lowest
    basis index among ties) was slower on the 28-row L1 tableaux.  A pivot
    divides the pivot row, sets its x_B entry to the step and subtracts one
    rank-one product, built in a buffer that lasts a phase, from the whole
    tableau, which also gives every other x_B[r] - d[r] step.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.m, self.ns = a.shape
        shared = np.zeros(self.ns, dtype=bool)
        shared[1:] = (a[:, 1:] == -a[:, :-1]).all(axis=0)
        columns = np.arange(self.ns)
        # column j negates its stored column once per shared column between
        # them, itself included
        flips = columns - np.maximum.accumulate(np.where(shared, 0, columns))
        self.idx = np.cumsum(np.r_[~shared, np.ones(self.m, dtype=bool)]) - 1
        self.sign = np.r_[np.where(flips % 2, -1.0, 1.0), np.ones(self.m)]
        signs = np.where(b >= 0, 1.0, -1.0)
        self.T = np.hstack([a[:, ~shared] * signs[:, None], np.eye(self.m), np.abs(b)[:, None]])
        self.basis = np.arange(self.ns, self.ns + self.m)

    def phase_one(self) -> bool:
        """Minimize the artificials' sum; True when it ends at 0 (within tol)."""
        scale = max(1.0, float(self.T[:, -1].sum()))
        self._run(np.r_[np.zeros(self.ns), np.ones(self.m)], dantzig=True)
        infeasibility = sum(self.T[self.basis >= self.ns, -1].tolist())
        return infeasibility <= FLOAT_TOL * scale

    def phase_two(self, c: np.ndarray):
        """Minimize c.x with the artificials held at 0.  They may not enter
        again, so their columns are no longer updated."""
        self.T = np.delete(self.T, np.s_[-self.m - 1:-1], axis=1)
        self.idx, self.sign = self.idx[:self.ns], self.sign[:self.ns]
        self._run(np.concatenate([c, np.zeros(self.m)]), dantzig=False)

    def _run(self, cost: np.ndarray, dantzig: bool):
        """Pivot until no column in play (phase 2: no artificial) has a
        reduced cost below -FLOAT_TOL; cost covers the artificials too,
        which may be basic."""
        idx, sign, basis = self.idx, self.sign, self.basis
        width, in_play, buf = idx.size, cost[:idx.size], np.empty_like(self.T)
        stalled = 0
        for _ in range(_MAX_ITERS):
            red = in_play - sign * (cost[basis] @ self.T)[idx]
            red[basis[basis < width]] = 0
            entering = (red < -FLOAT_TOL).nonzero()[0]
            if entering.size == 0:
                return
            e = int(red.argmin()) if dantzig and stalled < self.m else int(entering[0])
            stalled = stalled + 1 if self._pivot(e, buf) <= FLOAT_TOL else 0
        raise SimplexError("iteration limit exceeded")

    def _pivot(self, e: int, buf: np.ndarray) -> float:
        """Enter column e and return the step it moves; buf has T's shape."""
        T, width = self.T, self.idx.size
        d = T[:, self.idx[e]] * self.sign[e]
        basis = self.basis.tolist()
        block, step = -1, None
        for r, (dr, x, j) in enumerate(zip(d.tolist(), T[:, -1].tolist(), basis)):
            # x_B[r] falls as x_e rises when d[r] > 0; an artificial whose
            # column phase 2 dropped is fixed at 0 and must not rise either
            if not (dr > _PIVOT_EPS or (j >= width and dr < -_PIVOT_EPS)):
                continue
            limit = x / dr
            if block < 0 or limit < step - FLOAT_TOL or (
                limit <= step + FLOAT_TOL and j < basis[block]
            ):
                block, step = r, limit
        if block < 0:
            raise SimplexError("LP is unbounded")
        step = max(step, 0.0)  # only float rounding makes a limit negative
        self.basis[block] = e
        row = T[block]
        row /= d[block]
        row[-1] = step  # so the update below leaves x_B[r] - d[r] step
        d[block] = 0
        T -= np.multiply(d[:, None], row, out=buf)
        return step


def _objective(c, x) -> Fraction:
    return sum((cj * xj for cj, xj in zip(c, x) if xj), Fraction(0))


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
    return tab.basis.tolist()


def _field_width(columns, extras) -> int:
    """Bits k per packed field, 2^(k-2) above every minor of some of columns
    and at most one of extras (Hadamard; each column norm taken as >= 1)."""
    bound = max([1, *(sum(x * x for x in e) for e in extras)])
    for c in columns:
        bound *= max(1, sum(x * x for x in c))
    return (math.isqrt(bound) + 1).bit_length() + 2


def _pack(column, k: int) -> int:
    """The integer sum of column[i] * 2^(k i): one signed field per entry."""
    packed = 0
    for x in reversed(column):  # a loop costs less than a sum over a generator
        packed = (packed << k) + x
    return packed


def _packed_step(us, v: int, k: int, prev: int):
    """One fraction-free step on packed vectors with fields of k bits: the
    pivot field piv of the nonzero v (the field of its lowest set bit),
    v[piv], and each u of us replaced by (v[piv] u - u[piv] v) // prev, exact
    because every result entry is a minor (see the module docstring)."""
    piv = ((v & -v).bit_length() - 1) // k
    s, half, mask = k * piv, 1 << (k - 1), (1 << k) - 1
    # field piv moved to [0, 2^k), plus half a unit below it to absorb the
    # borrow of the lower fields
    off = (half << s) + ((1 << s) >> 1)
    f = ((v + off) >> s & mask) - half
    reduced = []  # a loop: in Python 3.11 a comprehension costs more for one vector
    for u in us:
        reduced.append((f * u - ((((u + off) >> s) & mask) - half) * v) // prev)
    return piv, f, reduced


def _solve_integer(mat, rhs_cols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of mat.x = rhs on
    packed rows (see the module docstring).

    mat has m >= s rows of s entries; mat and the right-hand sides hold ints
    or Fractions.  Returns (d, nums), one integer list per right-hand side,
    with mat . num = d * rhs and d != 0, or None when the columns of mat are
    dependent or some right-hand side is inconsistent.
    """
    s = len(mat[0])
    # a row times a nonzero constant has the same solutions, and every
    # right-hand side times q has the solutions times q
    rhs_units, q = integer_units([*itertools.chain(*rhs_cols)])
    rows = []
    for r, row in enumerate(mat):
        ints, d = integer_units(row)
        rows.append([*ints, *(d * x for x in rhs_units[r::len(mat)])])
    columns = list(zip(*rows))
    k = _field_width(columns[:s], columns[s:])
    matrix_part = (1 << k * s) - 1
    pivots, done, rest, prev = [], [], [_pack(row, k) for row in rows], 1
    while rest:
        v, *rest = rest
        if v & matrix_part:
            piv, prev, reduced = _packed_step(done + rest, v, k, prev)
            done, rest = [*reduced[:len(done)], v], reduced[len(done):]
            pivots.append(piv)
        elif v:  # 0 = a nonzero right-hand side
            return None
    if len(pivots) < s:
        return None
    half = 1 << (k - 1)
    nums = [[0] * s for _ in rhs_cols]
    for piv, row in zip(pivots, done):
        row = (row - (prev << k * piv)) >> k * s  # the right-hand-side fields
        for num in nums:
            row, x = divmod(row + half, 1 << k)
            num[piv] = x - half
    return prev * q, nums


def _columns(a_rows, b):
    """The columns of [A | S], S = diag(sign b): column ns + r is the
    artificial of row r."""
    signs = [1 if v >= 0 else -1 for v in b]
    return [*zip(*a_rows), *([v if r == k else 0 for r, v in enumerate(signs)]
                             for k in range(len(b)))]


def _basic_solution(cols, b, basis, ns):
    """x (the first ns entries) of the basic solution, or None when the
    basis is singular or x_B is negative or has a nonzero artificial."""
    sol = _solve_integer([*zip(*(cols[j] for j in basis))], [b])
    if sol is None:
        return None
    d, (num,) = sol
    # x_B = num / d is negative where num * d < 0
    if any(v * d < 0 or (j >= ns and v) for v, j in zip(num, basis)):
        return None
    x = [Fraction(0)] * ns
    for v, j in zip(num, basis):
        if j < ns:
            x[j] = Fraction(v, d)
    return x


def _entering(cols, cost, basis, candidates):
    """The lowest nonbasic j in candidates with a negative reduced cost, or
    None.  B^T y = cost_B (the basic columns are its rows) has y = y_num / d,
    so the reduced cost of column j has the sign of (cost_j d - y_num.a_j) d.
    """
    d, (y,) = _solve_integer([cols[j] for j in basis], [[cost[j] for j in basis]])
    basic = set(basis)
    return next((j for j in candidates if j not in basic and
                 (cost[j] * d - sum(map(operator.mul, y, cols[j]))) * d < 0), None)


def _pivot_exactly(cols, b, cost, basis, ns, artificials_fixed):
    """Bland's rule on the primal feasible basis (changed in place) until no
    reduced cost is negative; then ``_basic_solution`` of the final basis.

    Artificials enter only while they are not fixed (phase 1).  Each step
    solves B [x_B | d] = [b | a_e] for the entering column e in integers,
    x_B = num / den and d = col / den, so the ratio x_B[r] / d[r] is
    num[r] / col[r]; ties leave by the lowest basis index.
    """
    candidates = range(ns if artificials_fixed else len(cols))
    for _ in range(_MAX_ITERS):
        e = _entering(cols, cost, basis, candidates)
        if e is None:
            return _basic_solution(cols, b, basis, ns)
        den, (num, col) = _solve_integer([*zip(*(cols[j] for j in basis))], [b, cols[e]])
        block = step = None
        for r, j in enumerate(basis):
            # x_B[r] falls as x_e rises when d[r] > 0; a fixed artificial
            # must not rise either
            if col[r] * den > 0 or (artificials_fixed and j >= ns and col[r]):
                limit = Fraction(num[r], col[r])
                if block is None or limit < step or (limit == step and j < basis[block]):
                    block, step = r, limit
        if block is None:
            raise SimplexError("LP is unbounded")
        basis[block] = e
    raise SimplexError("iteration limit exceeded")


def _integer_floats(a_rows, c):
    """a_rows and c as float64 arrays, or None unless every entry is an
    integer below 2^53 in magnitude, which float64 holds exactly."""
    if all(v.denominator == 1 and abs(v) < _EXACT for v in (*c, *itertools.chain(*a_rows))):
        return np.array(a_rows, dtype=float), np.array(c, dtype=float)
    return None


def _convergent_denominator(t: float, tol: float) -> int:
    """The denominator k of the first continued-fraction convergent h / k of
    t with |t - h / k| <= tol (t itself when none is closer)."""
    num, den = t.as_integer_ratio()
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        a, rest = divmod(num, den)
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
        if not rest or abs(t * k - h) <= tol * k:
            return k
        num, den = den, rest


def _common_denominator(v: np.ndarray) -> int | None:
    """A d below 2^53 that makes every d v_i an integer up to d tol, or None.

    tol is _ROUNDING_TOL times max(1, max |v_i|): a float solve errs in
    proportion to the largest entry of its solution, not to each entry.
    Each d v_i in turn that is farther than d tol from an integer multiplies
    d by the denominator of its first convergent within d tol."""
    tol = _ROUNDING_TOL * max(1.0, float(np.abs(v).max()))
    d = 1
    for t in v.tolist():
        t *= d
        if abs(t - round(t)) > d * tol:
            d *= _convergent_denominator(t, d * tol)
            if d >= _EXACT:
                return None
    return d


def certify_basis(a_rows, b, c, basis, floats=None) -> LPResult | None:
    """The optimum at a phase-2 basis, read off float64 solves and proven in
    integer arithmetic (see the module docstring), or None when the proof
    does not go through or proves a reduced cost negative.

    Basis entries j >= len(c) name the artificial of row j - len(c).
    floats, when given, is ``_integer_floats(a_rows, c)``, made once by the
    caller.  None decides nothing: ``exact_resume`` then settles the basis.
    """
    floats = floats or _integer_floats(a_rows, c)
    bs, s = integer_units(b)  # s b
    if floats is None or max(basis) >= len(c) or max(map(abs, bs)) >= _EXACT:
        return None
    a, cost = floats
    mat, bs_float, cost_b = a[:, basis], np.array(bs, dtype=float), cost[basis]
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    x_float, y_float = inv @ bs_float, cost_b @ inv  # s x_B and y
    if not (np.isfinite(x_float).all() and np.isfinite(y_float).all()):
        return None
    d, e = _common_denominator(x_float), _common_denominator(y_float)
    if d is None or e is None:
        return None
    p, r, approx = np.rint(d * x_float), np.rint(e * y_float), np.rint(_INVERSE_SCALE * inv)
    # Each sum below adds integer products whose magnitudes sum to at most
    # one of these bounds; below 2^53 float64 forms it exactly in any order
    # (2^52 absorbs the rounding of the bounds themselves).
    width = max(float(np.abs(mat).sum(axis=1).max()), float(np.abs(a).sum(axis=0).max()))
    bounds = (d * max(map(abs, bs)), e * float(np.abs(cost).max()), width * np.abs(p).max(),
              width * np.abs(r).max(), 2 * len(bs) * width * np.abs(approx).max())
    if not sum(bounds) < 2.0**52:
        return None
    check = approx @ mat  # strictly diagonally dominant, so mat is nonsingular
    if not ((mat @ p == d * bs_float).all() and (r @ mat == e * cost_b).all() and (p >= 0).all()
            and (2 * np.abs(check.diagonal()) > np.abs(check).sum(axis=1)).all()):
        return None
    # x_B = p / (d s) and y = r / e, exactly
    if (r @ a > e * cost).any():
        return None
    x, den = [Fraction(0)] * len(c), d * s
    p = p.tolist()
    for j, v in zip(basis, p):
        if v:
            x[j] = Fraction(int(v), den)
    return LPResult(Fraction(sum(c[j] * int(v) for j, v in zip(basis, p)), den), x)


def exact_resume(a_rows, b, c, basis):
    """Exact phase-2 pivoting from a primal feasible basis to the optimum.

    Returns an LPResult, or None when the basis is singular or infeasible
    (the caller should restart from scratch).  On an optimal basis it makes
    no pivot: no reduced cost is negative, which proves the basis optimal.
    """
    cols, basis = _columns(a_rows, b), list(basis)
    if _basic_solution(cols, b, basis, len(c)) is None:
        return None
    # c in integer units has the same reduced-cost signs; artificials cost 0
    x = _pivot_exactly(cols, b, integer_units(c)[0] + [0] * len(b), basis, len(c), True)
    return LPResult(_objective(c, x), x)


def exact_solve(a_rows, b, c) -> LPResult:
    """Two-phase exact simplex from the artificial basis."""
    m, ns = len(b), len(c)
    cols, basis = _columns(a_rows, b), list(range(ns, ns + m))
    # phase 1 fails when a basic artificial is nonzero
    if _pivot_exactly(cols, b, [0] * ns + [1] * m, basis, ns, False) is None:
        raise SimplexError("LP is infeasible")
    x = _pivot_exactly(cols, b, integer_units(c)[0] + [0] * m, basis, ns, True)
    return LPResult(_objective(c, x), x)


def solve_lp(a_rows, b, c, floats=None) -> LPResult:
    """Solve min c.x s.t. a_rows x = b, x >= 0, exactly.

    a_rows (at least one row), b and c hold Fractions or ints.  floats, when
    given, is ``_integer_floats(a_rows, c)``: a_rows and c as exact float64
    arrays, which a caller solving many programs with the same integer rows
    and costs makes once.  The float engine runs on them, and
    ``certify_basis`` reads them to certify its basis.  A basis that it
    does not certify is solved exactly by ``exact_resume``, which proves it
    optimal or pivots on from it.  A singular or infeasible basis, every
    float "infeasible" or failure, and a program with an entry beyond
    float64 range, which the float engine cannot hold, are solved from
    scratch by ``exact_solve``.
    """
    try:
        b_float = np.array(b, dtype=float)
        a_float, c_float = floats or (np.array(a_rows, dtype=float), np.array(c, dtype=float))
    except OverflowError:
        basis = None
    else:
        basis = float_solve(a_float, b_float, c_float)
    if basis is not None:
        res = certify_basis(a_rows, b, c, basis, floats) or exact_resume(a_rows, b, c, basis)
        if res is not None:
            return res
    return exact_solve(a_rows, b, c)
