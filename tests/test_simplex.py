"""simplex on bounds-free LPs: solve_lp's staging of the float basis on the
branches the float engine rarely reaches (resume from a non-optimal basis, a
singular basis, an untrusted float "infeasible", a target beyond float64
range), the exact engine (revised Bland pivoting on integer solves) and the
float tableau against scipy's HiGHS, the float tableau's bases against a
plain reference copy of its pivot rules, the exact engine on real L1
cut-matrix LPs with pinned optimal vertices, the integer eliminator and
exact_resume against Fraction elimination, and certify_basis, the float
certificate, against elimination on L1 programs and integer LPs."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from isingcoupler import parse_edge_list, random_er_graph, simplex, verify
from isingcoupler.exactopt import _cut_columns, _l1_program, solve_l1
from isingcoupler.graphs import couplings, integer_units
from isingcoupler.simplex import (LPResult, SimplexError, certify_basis, exact_resume, exact_solve,
                                  float_solve, solve_lp)


@pytest.fixture
def log(monkeypatch):
    """(name, result) of every certify_basis, exact_resume and exact_solve
    call the staging makes, in order."""
    calls = []
    for name in ("certify_basis", "exact_resume", "exact_solve"):
        def recorded(*args, _fn=getattr(simplex, name), _name=name):
            result = _fn(*args)
            calls.append((_name, result))
            return result
        monkeypatch.setattr(simplex, name, recorded)
    return calls


@pytest.fixture
def float_basis(monkeypatch):
    """Make solve_lp's float engine hand over the given basis (None for a
    float "infeasible")."""
    def use(basis):
        monkeypatch.setattr(simplex, "float_solve", lambda a, b, c: basis)
    return use


def exact_lp(a_rows, b, c):
    return [list(map(Fraction, row)) for row in a_rows], list(map(Fraction, b)), list(map(Fraction, c))


def float_basis_of(a_rows, b, c):
    return float_solve(np.array(a_rows, dtype=float), np.array(b, dtype=float),
                       np.array(c, dtype=float))


# max x0 + 2 x1 s.t. x0 + x1 + s0 = 4, x0 - x1 + s1 = 1, and the bounds
# x0, x1 <= 3 as the rows x0 + u0 = 3, x1 + u1 = 3; the unique optimum is
# (x0, x1, s0, s1, u0, u1) = (1, 3, 0, 3, 2, 0) with objective -7.
LP = exact_lp([[1, 1, 1, 0, 0, 0], [1, -1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1]],
              [4, 1, 3, 3], [-1, -2, 0, 0, 0, 0])
OPTIMUM = [1, 3, 0, 3, 2, 0]


def test_non_optimal_basis_resumes_to_the_exact_optimum(log, float_basis):
    a_rows, b, c = LP
    # the float optimum of the opposite objective is feasible but not optimal
    basis = float_basis_of(a_rows, b, [-v for v in c])
    assert basis is not None
    float_basis(basis)
    res = solve_lp(a_rows, b, c)
    assert [(name, result if name == "certify_basis" else "ok") for name, result in log] == [
        ("certify_basis", None), ("exact_resume", "ok")]
    assert res.objective == -7 and res.x == OPTIMUM


def test_singular_basis_falls_back_to_exact_solve(log, float_basis):
    # columns 0 and 1 are equal, so a basis holding both is singular
    a_rows, b, c = exact_lp([[1, 1, 0], [0, 0, 1]], [2, 1], [1, 2, 0])
    float_basis([0, 1])
    res = solve_lp(a_rows, b, c)
    assert [name for name, _ in log] == ["certify_basis", "exact_resume", "exact_solve"]
    assert log[0][1] is None and log[1][1] is None
    assert res.objective == 2 and res.x == [2, 0, 1]


def test_basis_with_a_nonzero_artificial_falls_back_to_exact_solve(log, float_basis):
    # basis (artificial of row 0, x1) solves with the artificial at 1
    a_rows, b, c = exact_lp([[1, 0], [0, 1]], [1, 1], [1, 1])
    float_basis([2, 1])
    res = solve_lp(a_rows, b, c)
    assert log == [("certify_basis", None), ("exact_resume", None), ("exact_solve", res)]
    assert res.objective == 2 and res.x == [1, 1]


def test_uncertified_infeasibility_is_not_trusted(log, float_basis):
    # a float engine that wrongly reports a feasible LP as infeasible
    a_rows, b, c = LP
    float_basis(None)
    res = solve_lp(a_rows, b, c)
    assert [name for name, _ in log] == ["exact_solve"]
    assert res.objective == -7 and res.x == OPTIMUM


def test_solve_lp_certifies_the_float_basis(log):
    res = solve_lp(*LP)
    assert [name for name, _ in log] == ["certify_basis"]
    assert res.objective == -7 and res.x == OPTIMUM


def test_infeasible_system_raises_simplex_error():
    a_rows, b, c = exact_lp([[1, 1], [1, 1]], [1, 2], [1, 1])
    assert float_basis_of(a_rows, b, c) is None
    for solve in (exact_solve, solve_lp):
        with pytest.raises(SimplexError, match="infeasible"):
            solve(a_rows, b, c)


def test_float_engine_failure_hands_over_no_basis():
    # min -x0 s.t. x0 - x1 = 0 is unbounded, so phase 2 raises SimplexError
    a_rows, b, c = exact_lp([[1, -1]], [0], [-1, 0])
    assert float_basis_of(a_rows, b, c) is None
    with pytest.raises(SimplexError, match="unbounded"):
        solve_lp(a_rows, b, c)


def test_a_target_beyond_float_range_is_solved_exactly(log):
    """float64 cannot hold b = (1e400, 0, 1), so the float engine cannot
    run and exact_solve solves the L1 program from scratch."""
    g = parse_edge_list("n 3\n0 1 1e400\n1 2\n")
    res = solve_l1(g)
    assert [name for name, _ in log] == ["exact_solve"]
    assert res.objective == 10**400 and verify(res.sequence, g)


def test_ratio_ties_leave_by_the_lowest_basis_index():
    # min x1 s.t. x1 + x2 + x3 = 1, x0 + x1 + x2 = 1 has the optima
    # (1, 0, 0, 1) and (0, 0, 1, 0).  In phase 1 x0 enters first; x1 then
    # enters with the ratio 1 on both rows, a tie between the artificial of
    # row 0 (index 4) and x0, so x0 leaves and the solve ends at the first
    # optimum; letting the artificial leave ends at the second.
    res = exact_solve(*exact_lp([[0, 1, 1, 1], [1, 1, 1, 0]], [1, 1], [0, 1, 0, 0]))
    assert res.objective == 0 and res.x == [1, 0, 0, 1]


def phase_one_basis(a, b, c):
    """A feasible basis that is not optimal: the one the exact engine's
    Bland phase 1 ends on from the artificial basis."""
    a_rows = [[Fraction(v) for v in row] for row in a.tolist()]
    b = [Fraction(v) for v in b.tolist()]
    m, ns = len(b), len(c)
    basis = list(range(ns, ns + m))
    assert simplex._pivot_exactly(simplex._columns(a_rows, b), b, [0] * ns + [1] * m, basis, ns,
                                  False) is not None
    return basis


# (n, seed, weights) of an ER(n, 0.5) graph -> the (mask, strength) rows
# solve_l1 emits when the exact engine solves its LP, from scratch or resumed
# from the phase-1 basis.  The L1 optima are degenerate, so these pin the
# vertex Bland's rule picks among them.
L1_VERTICES = {
    (5, 1, ()): [(0, "1/4"), (2, "1/4"), (8, "1/4"), (14, "1/4"), (18, "-1/4"), (22, "1/4")],
    (5, 1, (1, 2, 3)): [(0, "3/4"), (2, "1/2"), (14, "1/4"), (16, "-1/4"), (28, "1/2"),
        (30, "1/4")],
    (5, 2, ()): [(0, "1/4"), (6, "-1/4"), (12, "-1/4"), (14, "1/4"), (18, "-1/4"), (22, "1/4")],
    (5, 2, (1, 2, 3)): [(0, "3/4"), (4, "-3/4"), (10, "-1/4"), (14, "1/4"), (24, "-1/2"),
        (28, "1/2")],
    (6, 1, ()): [(0, "1/4"), (2, "1/4"), (12, "1/4"), (18, "-1/4"), (44, "-1/4"), (48, "-1/4")],
    (6, 1, (1, 2, 3)): [(0, "1/2"), (6, "-1/2"), (8, "1/4"), (24, "-1/4"), (26, "-1/2"),
        (30, "1/2"), (34, "1/4"), (48, "-1/2"), (50, "1/4")],
    (6, 2, ()): [(0, "1/4"), (16, "1/4"), (36, "-1/4"), (48, "-1/4"), (50, "-1/4"), (54, "1/4")],
    (6, 2, (1, 2, 3)): [(0, "3/4"), (2, "1/4"), (10, "-1/4"), (14, "-1/2"), (26, "1/4"),
        (34, "-1/4"), (48, "-3/4"), (62, "1/2")],
}


@pytest.mark.parametrize("start", ["restart", "resume"])
@pytest.mark.parametrize("graph", list(L1_VERTICES))
def test_exact_engine_solves_l1_cut_matrix_lps_to_the_pinned_vertex(monkeypatch, log, graph, start):
    n, seed, weights = graph
    g = random_er_graph(n, 0.5, weights, seed)
    certified = solve_l1(g)
    log.clear()
    monkeypatch.setattr(simplex, "float_solve",
                        (lambda a, b, c: None) if start == "restart" else phase_one_basis)
    res = solve_l1(g)
    expected = [("exact_solve", "ok")] if start == "restart" else [
        ("certify_basis", None), ("exact_resume", "ok")]
    assert [(name, result if name == "certify_basis" else "ok") for name, result in log] == expected
    assert res.objective == certified.objective and verify(res.sequence, g)
    assert list(zip(res.sequence.rows, map(str, res.sequence.strengths))) == L1_VERTICES[graph]


def highs_l1(g):
    """Minimum L1 of g by scipy's HiGHS, on the program solve_l1 builds."""
    q = np.array(list(_cut_columns(g.n).values()), dtype=float).T
    res = linprog(np.ones(2 * q.shape[1]), A_eq=np.hstack([q, -q]),
                  b_eq=[float(v) for v in couplings(g)], bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("weights", [(), (1, 2, 3), (1, -1)], ids=["unweighted", "123", "pm1"])
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (6, 7, 8) for seed in range(5)])
def test_float_basis_of_an_l1_program_certifies_as_optimal(log, n, weights, seed):
    """The float engine hands certify_basis an optimal basis, which it
    certifies: no exact_resume and no exact restart, and the certified
    objective is HiGHS's."""
    g = random_er_graph(n, 0.2 + 0.15 * seed, weights, seed)
    res = solve_l1(g)
    assert [name for name, _ in log] == ["certify_basis"]
    assert isinstance(log[0][1], LPResult) and log[0][1].objective == res.objective
    assert float(res.objective) == pytest.approx(highs_l1(g), rel=1e-9, abs=1e-9)


def test_phase_one_falls_back_to_blands_rule_after_m_degenerate_pivots(monkeypatch, log):
    """Phase 1 enters the most negative reduced cost, except after m
    pivots in a row that move by at most FLOAT_TOL, when it enters the
    lowest index until a pivot moves.  ER(6, 0.5) at seed 24 stalls long
    enough that the two rules pick different columns (m = 15)."""
    g = random_er_graph(6, 0.5, (), 24)
    pivots = []  # (phase-1 tableau's m, entered, Dantzig's column, Bland's column, step)
    original = simplex._Tableau._pivot

    def recorded(tab, e, buf):
        if tab.idx.size == tab.ns:  # phase 2 has dropped the artificials
            return original(tab, e, buf)
        # the reduced costs of the tableau of every column, the shared ones
        # read off their stored columns
        full = np.ascontiguousarray(tab.T[:, tab.idx] * tab.sign)
        cost = np.r_[np.zeros(tab.ns), np.ones(tab.m)]
        red = cost - cost[tab.basis] @ full
        red[tab.basis] = 0
        choices = int(np.argmin(red)), int(np.flatnonzero(red < -simplex.FLOAT_TOL)[0])
        step = original(tab, e, buf)
        pivots.append((tab.m, e, *choices, step))
        return step

    monkeypatch.setattr(simplex._Tableau, "_pivot", recorded)
    res = solve_l1(g)
    stalled = fallbacks = 0
    for m, e, dantzig, bland, step in pivots:
        assert e == (dantzig if stalled < m else bland)
        fallbacks += stalled >= m and dantzig != bland
        stalled = stalled + 1 if step <= simplex.FLOAT_TOL else 0
    assert fallbacks > 0
    assert [(name, isinstance(result, LPResult)) for name, result in log] == [
        ("certify_basis", True)]
    assert verify(res.sequence, g)
    assert float(res.objective) == pytest.approx(highs_l1(g), rel=1e-9, abs=1e-9)


def random_feasible_lp(seed):
    """min c.x, A x = b, x >= 0 with integer A in [-3, 3], b = A x0 for a
    nonnegative x0 (so it is feasible) and c >= 0 (so it is bounded)."""
    rng = random.Random(seed)
    m, ns = rng.randint(1, 5), rng.randint(2, 9)
    a_rows = [[rng.randint(-3, 3) for _ in range(ns)] for _ in range(m)]
    x0 = [Fraction(rng.choice([0, 0, 1, 2, 3]), rng.choice([1, 2])) for _ in range(ns)]
    b = [sum(a * x for a, x in zip(row, x0)) for row in a_rows]
    return a_rows, b, [rng.randint(0, 4) for _ in range(ns)]


@pytest.mark.parametrize("seed", range(40))
def test_exact_engines_match_highs_on_random_feasible_lps(seed):
    a_rows, b, c = random_feasible_lp(seed)
    highs = linprog(c, A_eq=np.array(a_rows, dtype=float), b_eq=np.array(b, dtype=float),
                    bounds=(0, None), method="highs")
    assert highs.status == 0
    exact = exact_solve(a_rows, b, c)
    staged = solve_lp(a_rows, b, c)
    assert staged.objective == exact.objective
    assert abs(float(exact.objective) - highs.fun) < 1e-7
    for res in (exact, staged):
        assert all(v >= 0 for v in res.x)
        assert [sum(a * x for a, x in zip(row, res.x)) for row in a_rows] == b
        assert sum(cj * xj for cj, xj in zip(c, res.x)) == res.objective


class ReferenceTableau:
    """The pivot rules of ``simplex._Tableau`` in their plain form, with a
    basis list and a ratio test on numpy scalars: Dantzig's rule in phase 1
    with the fall-back to Bland's after m degenerate pivots, Bland's rule
    in phase 2, and ratio ties leaving by the lowest basis index."""

    def __init__(self, a, b):
        self.m, self.ns = a.shape
        signs = np.where(b >= 0, 1.0, -1.0)
        self.T = np.hstack([a * signs[:, None], np.eye(self.m)])
        self.xB = np.abs(b)
        self.basis = list(range(self.ns, self.ns + self.m))

    def phase_one(self):
        scale = max(1.0, float(self.xB.sum()))
        self.run(np.r_[np.zeros(self.ns), np.ones(self.m)], dantzig=True)
        infeasibility = sum(self.xB[r] for r in range(self.m) if self.basis[r] >= self.ns)
        return infeasibility <= simplex.FLOAT_TOL * scale

    def phase_two(self, c):
        self.T = self.T[:, :self.ns].copy()
        self.run(np.concatenate([c, np.zeros(self.m)]), dantzig=False)

    def run(self, cost, dantzig):
        width = self.T.shape[1]
        stalled = 0
        for _ in range(simplex._MAX_ITERS):
            red = cost[:width] - cost[self.basis] @ self.T
            red[[j for j in self.basis if j < width]] = 0
            entering = np.flatnonzero(red < -simplex.FLOAT_TOL)
            if entering.size == 0:
                return
            e = int(np.argmin(red)) if dantzig and stalled < self.m else int(entering[0])
            stalled = stalled + 1 if self.pivot(e) <= simplex.FLOAT_TOL else 0
        raise SimplexError("iteration limit exceeded")

    def pivot(self, e):
        d = self.T[:, e]
        width = self.T.shape[1]
        block, step = -1, None
        for r in range(self.m):
            fixed = self.basis[r] >= width
            if not (d[r] > simplex._PIVOT_EPS or (fixed and d[r] < -simplex._PIVOT_EPS)):
                continue
            limit = self.xB[r] / d[r]
            if block < 0 or limit < step - simplex.FLOAT_TOL or (
                limit <= step + simplex.FLOAT_TOL and self.basis[r] < self.basis[block]
            ):
                block, step = r, limit
        if block < 0:
            raise SimplexError("LP is unbounded")
        step = max(step, 0.0)
        self.xB -= step * d
        self.xB[block] = step
        self.basis[block] = e
        self.T[block] /= d[block]
        col = self.T[:, e].copy()
        col[block] = 0
        self.T -= np.outer(col, self.T[block])
        return step


def reference_float_solve(a, b, c):
    tab = ReferenceTableau(a, b)
    try:
        if not tab.phase_one():
            return None
        tab.phase_two(c)
    except SimplexError:
        return None
    return [int(j) for j in tab.basis]


def float_programs():
    """(a, b, c) in float64: the 45 L1 programs of
    test_float_basis_of_an_l1_program_certifies_as_optimal, the stalled
    ER(6, 0.5) seed-24 program and the 40 random feasible LPs."""
    graphs = [random_er_graph(n, 0.2 + 0.15 * seed, weights, seed)
              for weights in [(), (1, 2, 3), (1, -1)] for n in (6, 7, 8) for seed in range(5)]
    for g in [*graphs, random_er_graph(6, 0.5, (), 24)]:
        _, _, (a, c) = _l1_program(g.n)
        yield a, np.array(couplings(g), dtype=float), c
    for seed in range(40):
        yield tuple(np.array(v, dtype=float) for v in random_feasible_lp(seed))


def test_float_engine_hands_over_the_reference_basis():
    """The float engine makes the reference tableau's choices bit for bit,
    so it hands certify_basis the same phase-2 basis on every program."""
    programs = list(float_programs())
    assert len(programs) == 86
    for k, program in enumerate(programs):
        basis = float_solve(*program)
        assert basis == reference_float_solve(*program), k
        assert basis is not None and all(type(j) is int for j in basis), k


def with_negated_columns(seed):
    """random_feasible_lp(seed) with the negation of some columns inserted
    after them, once or twice (the negation of a negation), each at a cost
    in [0, 4]; b stays A x0, x0 being 0 on the new columns."""
    rng = random.Random(seed)
    a_rows, b, c = random_feasible_lp(seed)
    cols, costs = [], []
    for col, cost in zip(zip(*a_rows), c):
        cols.append(col)
        costs.append(cost)
        for _ in range(rng.choice([0, 0, 1, 2])):
            cols.append(tuple(-v for v in cols[-1]))
            costs.append(rng.randint(0, 4))
    return [list(row) for row in zip(*cols)], b, costs


def nearly_negated_lp(seed):
    """A random feasible LP whose column 2t + 1 negates column 2t in every
    row but one."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    cols = []
    for _ in range(rng.randint(2, 4)):
        col = [rng.randint(-3, 3) for _ in range(m)]
        near = [-v for v in col]
        near[rng.randrange(m)] += rng.choice([-1, 1])
        cols += [col, near]
    x0 = [Fraction(rng.choice([0, 1, 2, 3]), rng.choice([1, 2])) for _ in cols]
    b = [sum(col[r] * x for col, x in zip(cols, x0)) for r in range(m)]
    return [list(row) for row in zip(*cols)], b, [rng.randint(0, 4) for _ in cols]


def test_shared_negated_columns_make_the_reference_pivots():
    """The tableau stores once each column that negates the column before
    it, and hands over the basis of the reference tableau, which stores
    every column: on L1 programs (every W- column shared), on random LPs
    where stored and shared columns mix, and on LPs whose columns negate
    their predecessors in all rows but one, which share nothing."""
    _, _, (a, _) = _l1_program(8)
    assert simplex._Tableau(a, np.ones(a.shape[0])).T.shape == (28, 128 + 28 + 1)
    programs = []
    for weights in [(), (1, 2, 3), (1, -1), (1, -2, 5)]:
        for n in range(2, 9):
            _, _, (a, c) = _l1_program(n)
            for seed in range(3):
                g = random_er_graph(n, 0.3 + 0.25 * seed, weights, seed)
                programs.append((a, np.array(couplings(g), dtype=float), c, "l1"))
    for seed in range(40):
        for make, kind in [(with_negated_columns, "mixed"), (nearly_negated_lp, "near")]:
            a, b, c = (np.array(v, dtype=float) for v in make(seed))
            programs.append((a, b, c, kind))
    mixed = 0
    for k, (a, b, c, kind) in enumerate(programs):
        tab = simplex._Tableau(a, b)
        m, ns = a.shape
        # the stored columns, read through idx and sign, are [S A | I]
        full = np.hstack([a * np.where(b >= 0, 1.0, -1.0)[:, None], np.eye(m)])
        assert np.array_equal(tab.T[:, tab.idx] * tab.sign, full), k
        stored = tab.T.shape[1] - m - 1
        if kind == "l1":
            assert stored == ns // 2, k
        elif kind == "near":  # no odd column shares its predecessor's
            assert (tab.idx[1:ns:2] != tab.idx[:ns:2]).all(), k
        mixed += kind == "mixed" and stored < ns
        assert float_solve(a, b, c) == reference_float_solve(a, b, c), k
    assert len(programs) == 164 and mixed > 20


def fraction_gauss_jordan(mat, rhs_cols):
    """Reference for simplex._solve_integer: Gauss-Jordan elimination in
    Fractions.  Returns (det, solutions), with det the product of the pivots
    times the sign of the row swaps (det(mat) when mat is square), or None
    when the columns of mat are dependent or a right-hand side is
    inconsistent."""
    s = len(mat[0])
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[r]) for rhs in rhs_cols]
           for r, row in enumerate(mat)]
    det = Fraction(1)
    for c in range(s):
        piv = next((r for r in range(c, len(aug)) if aug[r][c] != 0), None)
        if piv is None:
            return None
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
            det = -det
        det *= aug[c][c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(len(aug)):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    if any(v != 0 for row in aug[s:] for v in row[s:]):
        return None
    return det, [[aug[r][s + k] for r in range(s)] for k in range(len(rhs_cols))]


@st.composite
def linear_systems(draw):
    """An m x s matrix (s <= 6, m <= s + 2) of small ints, some rows
    rational, with one or two right-hand sides, each either consistent by
    construction or drawn at random.  Sometimes a column is a multiple of
    another, a row's matrix part is zero, one column or the first
    right-hand side has entries up to 10^30, or the last right-hand side is
    divided by an integer up to 10^30."""
    s = draw(st.integers(1, 6))
    m = draw(st.integers(s, s + 2))
    mat = []
    for _ in range(m):
        entry = (st.fractions(min_value=-3, max_value=3, max_denominator=4)
                 if draw(st.booleans()) else st.integers(-3, 3))
        mat.append(draw(st.lists(entry, min_size=s, max_size=s)))
    if s > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(-2, 2))
        for row in mat:
            row[-1] = k * row[0]
    for r in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        mat[r] = [0] * s
    big = draw(st.integers(-1, s))  # the column with huge entries; s: the first rhs
    if 0 <= big < s:
        for row in mat:
            row[big] = draw(st.integers(-10**30, 10**30))
    rhs_cols = []
    for i in range(draw(st.integers(1, 2))):
        bound = 10**30 if big == s and i == 0 else 4
        if draw(st.booleans()):
            x = draw(st.lists(st.integers(-bound, bound), min_size=s, max_size=s))
            rhs_cols.append([sum(a * v for a, v in zip(row, x)) for row in mat])
        else:
            rhs_cols.append(draw(st.lists(st.integers(-bound, bound), min_size=m, max_size=m)))
    q = draw(st.one_of(st.just(1), st.integers(1, 10**30)))
    rhs_cols[-1] = [Fraction(v, q) for v in rhs_cols[-1]]
    return mat, rhs_cols


@settings(max_examples=300, deadline=None)
@given(linear_systems())
@example(([[0, 1], [1, 0]], [[2, 3]]))  # a row swap, det -1
@example(([[2, 1], [1, 1]], [[1, 2]]))  # a second pivot that is not 1
@example(([[1, 2], [2, 4]], [[1, 2]]))  # singular
@example(([[1, 1], [1, -1], [2, 0]], [[2, 0, 2]]))  # tall, consistent
@example(([[1, 1], [1, -1], [2, 0]], [[2, 0, 3]]))  # tall, inconsistent
@example(([[Fraction(1, 2), 1], [Fraction(-1, 3), 1]], [[Fraction(5, 6), 2]]))  # rational rows
@example(([[1, 2], [0, 0], [3, 1]], [[5, 0, 5]]))  # a zero row, skipped
@example(([[1, 1], [1, 2], [2, 3]], [[2, 3, 6]]))  # row 2 reduces to 0 = 1
@example(([[0, 2, 1], [1, 0, 0], [3, 1, 0]], [[3, 1, 4]]))  # row 0 leads in column 1
# right-hand sides of different denominators, one of them 10^400
@example(([[1, 1], [1, -1]], [[Fraction(1, 10**400), 1], [1, Fraction(2, 3)]]))
def test_integer_elimination_matches_fraction_elimination(system):
    mat, rhs_cols = system
    expected = fraction_gauss_jordan(mat, rhs_cols)
    got = simplex._solve_integer(mat, rhs_cols)
    if expected is None:
        assert got is None
        return
    det, solutions = expected
    d, nums = got
    assert d != 0
    for num, rhs, solution in zip(nums, rhs_cols, solutions):
        assert all(type(v) is int for v in num)
        assert [sum(a * v for a, v in zip(row, num)) for row in mat] == [d * v for v in rhs]
        assert [Fraction(v, d) for v in num] == solution
    integral = all(Fraction(v).denominator == 1 for row in mat for v in row) and all(
        Fraction(v).denominator == 1 for rhs in rhs_cols for v in rhs)
    if len(mat) == len(mat[0]) and integral:
        assert abs(d) == abs(det)


def test_field_width_takes_hadamards_bound_on_column_norms():
    """28 +-1 columns of length 28 and one column of 10^400 entries: every
    minor is below 28^14 * sqrt(28) * 10^400, about 2^1399, so about 1,400
    bits suffice, where the largest entry to the power of the order (29)
    would ask for about 39,000."""
    columns = [[1 - 2 * (i * j % 3 == 1) for i in range(28)] for j in range(28)]
    big = [10**400] * 28
    k = simplex._field_width(columns, [big])
    assert k <= 1410
    assert 1 << (k - 2) > math.isqrt(28**28 * 28 * 10**800)
    # only the largest extra column counts, and a zero column counts as 1
    assert simplex._field_width(columns + [[0] * 28], [[1] * 28, big]) == k


def test_a_tiny_right_hand_side_leaves_every_field_narrow(monkeypatch):
    """One weight of 10^-400 puts the denominator 10^400 in b alone.  Each
    basis system's matrix rows keep their own unit (1 here) and only the
    right-hand sides take 10^400, so every field stays near Hadamard's
    bound of the +-1 columns and one 10^400-sized column, about 1,360
    bits; a unit per whole row would scale matrix rows by 10^400 too."""
    widths, field_width = [], simplex._field_width

    def recording(columns, extras):
        widths.append(field_width(columns, extras))
        return widths[-1]

    monkeypatch.setattr(simplex, "_field_width", recording)
    g = parse_edge_list("n 6\n0 1 1e-400\n1 2\n2 3\n3 4\n4 5\n0 5 2\n")
    res = solve_l1(g)
    assert (res.objective, res.sequence.l0) == (2, 12) and verify(res.sequence, g)
    assert widths and max(widths) < 2000


def reference_certificate(a_rows, b, c, basis):
    """What certify_basis must return for basis, from Fraction elimination."""
    m, ns = len(a_rows), len(c)
    cols = [[row[j] for row in a_rows] if j < ns
            else [(1 if b[r] >= 0 else -1) * (r == j - ns) for r in range(m)] for j in basis]
    primal = fraction_gauss_jordan([list(row) for row in zip(*cols)], [b])
    if primal is None:
        return None
    xb = primal[1][0]
    if any(v < 0 or (j >= ns and v != 0) for v, j in zip(xb, basis)):
        return None
    y = fraction_gauss_jordan(cols, [[c[j] if j < ns else 0 for j in basis]])[1][0]
    if any(c[j] - sum(yr * row[j] for yr, row in zip(y, a_rows)) < 0
           for j in range(ns) if j not in basis):
        return "resume"
    x = [Fraction(0)] * ns
    for v, j in zip(xb, basis):
        if j < ns:
            x[j] = v
    return x, sum(cj * xj for cj, xj in zip(c, x))


def exact_optimum(a_rows, b, c):
    """exact_solve's objective, or None when the LP is unbounded or
    infeasible (the rational rows below no longer hold their x0)."""
    try:
        return exact_solve(a_rows, b, c).objective
    except SimplexError:
        return None


def check_resume(a_rows, b, c, basis, optimum):
    """exact_resume from basis against Fraction elimination: None exactly
    when the basis is singular or infeasible, the basis's (x, objective)
    when it is optimal, and the optimum (None: the LP is unbounded, which
    resuming finds too) when it is not.  Returns elimination's outcome."""
    expected = reference_certificate(a_rows, b, c, basis)
    if expected == "resume" and optimum is None:
        with pytest.raises(SimplexError, match="unbounded"):
            exact_resume(a_rows, b, c, basis)
        return expected
    res = exact_resume(a_rows, b, c, basis)
    if expected is None:
        assert res is None
    elif expected == "resume":
        assert res.objective == optimum
    else:
        assert res == LPResult(expected[1], expected[0])
    return expected


def test_basis_with_a_negative_pivot_is_certified():
    # B = [[-1]]: the last pivot is -1, so x_0 = 1 has numerator -1, and the
    # reduced cost 2 of x_1 appears as -2 before the sign of d is applied
    lp = [[-1, 1]], [Fraction(-1)], [Fraction(1), Fraction(1)], [0]
    assert exact_resume(*lp) == certify_basis(*lp) == LPResult(1, [1, 0])


def test_exact_resume_decides_every_basis_like_fraction_elimination():
    """Every choice of m basic columns, artificials included, of random LPs
    with rational rows, so that pivots of both signs and singular,
    infeasible, non-optimal and optimal bases all occur.  certify_basis,
    which declines rational rows, certifies none of them wrongly."""
    outcomes = set()
    for seed in range(12):
        rng = random.Random(seed)
        a_rows, b, c = random_feasible_lp(seed)
        a_rows = [[Fraction(v, rng.choice([1, 1, 2, 3])) for v in row] for row in a_rows]
        b = [Fraction(v) for v in b]
        c = [Fraction(v, rng.choice([1, 2])) - 1 for v in c]
        m, ns = len(a_rows), len(c)
        optimum = exact_optimum(a_rows, b, c)
        for basis in itertools.islice(itertools.combinations(range(ns + m), m), 400):
            expected = check_resume(a_rows, b, c, list(basis), optimum)
            cert = certify_basis(a_rows, b, c, list(basis))
            assert cert is None or cert == LPResult(expected[1], expected[0]), (seed, basis)
            outcomes.add(expected if expected in (None, "resume") else "optimal")
    assert outcomes == {None, "resume", "optimal"}


L1_WEIGHT_SETS = [(), (1, 2, 3), (1, -1), (1, -2, 5), (Fraction(1, 3), Fraction(2, 7)),
                  (1, Fraction(1, 999983))]


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8), st.sampled_from(L1_WEIGHT_SETS), st.floats(0.2, 1.0),
       st.integers(0, 2**32))
@example(8, (1, Fraction(1, 999983)), 0.8, 0)  # scaled basic values 1/8 beside 249996.75
def test_float_certificate_of_an_l1_basis_is_the_elimination_result(n, weights, p, seed):
    """certify_basis decides the float basis of random L1 programs,
    unweighted and weighted, with weights of small and large denominators,
    and gives the optimum that fraction-free elimination proves."""
    a_rows, costs, floats = _l1_program(n)
    b = couplings(random_er_graph(n, p, weights, seed))
    basis = float_solve(floats[0], np.array(b, dtype=float), floats[1])
    cert = certify_basis(a_rows, b, costs, basis, floats)
    assert isinstance(cert, LPResult)
    assert cert == exact_resume(a_rows, b, costs, basis)


def test_a_weight_beyond_the_exact_float_range_is_certified_by_elimination(log):
    """A weight of 10^15 + 1 makes basic values near 2.5 10^14, whose
    products with B's rows can sum beyond 2^53, so the guard declines the
    float certificate, and exact_resume proves the basis optimal with no
    pivot: no column can enter."""
    g = parse_edge_list("n 6\n0 1 1000000000000001\n1 2\n2 3\n3 4\n4 5\n0 5 2\n")
    a_rows, costs, floats = _l1_program(6)
    b = couplings(g)
    basis = float_solve(floats[0], np.array(b, dtype=float), floats[1])
    assert certify_basis(a_rows, b, costs, basis, floats) is None
    cols = simplex._columns(a_rows, b)
    integer_costs = integer_units(costs)[0] + [0] * len(b)
    assert simplex._entering(cols, integer_costs, basis, range(len(costs))) is None
    res = exact_resume(a_rows, b, costs, basis)
    assert res.objective == 10**15 + 1
    log.clear()
    out = solve_l1(g)
    assert log == [("certify_basis", None), ("exact_resume", res)]
    assert out.objective == res.objective and verify(out.sequence, g)


def test_float_certificate_decides_bases_of_integer_programs_like_fraction_elimination():
    """Every choice of m real basic columns of random integer LPs: whatever
    certify_basis certifies is the optimum that Fraction elimination
    proves, it certifies some, and it declines every basis that
    elimination finds feasible but not optimal."""
    certified = declined = 0
    for seed in range(40):
        a_rows, b, c = random_feasible_lp(seed)
        floats = simplex._integer_floats(a_rows, c)
        for basis in itertools.combinations(range(len(c)), len(b)):
            cert = certify_basis(a_rows, b, c, list(basis), floats)
            expected = reference_certificate(a_rows, b, c, list(basis))
            if expected == "resume":
                assert cert is None, (seed, basis)
                declined += 1
            elif cert is not None:
                assert cert == LPResult(expected[1], expected[0]), (seed, basis)
                certified += 1
    assert certified and declined


def test_a_singular_basis_is_not_certified_from_a_wrong_float_inverse(monkeypatch):
    """B = [[1, 1], [1, 1]] is singular, yet B x = b and B^T y = c_B are
    consistent, and the pseudo-inverse reads integer solutions that pass
    both equations.  Only the check that the rounded inverse times B is
    diagonally dominant refuses them, so exact_resume settles the basis,
    as singular."""
    a_rows, b, c = [[1, 1, 0], [1, 1, 1]], [2, 2], [1, 1, 5]
    monkeypatch.setattr(simplex.np.linalg, "inv", np.linalg.pinv)
    assert certify_basis(a_rows, b, c, [0, 1]) is None
    assert exact_resume(a_rows, b, c, [0, 1]) is None


@pytest.mark.parametrize("a_rows, b, c, basis", [
    # x = 2^39 + 1/2 is within the rounding tolerance (2^-32 of 2^39) of
    # 2^39, which only B p = d s b refuses
    ([[2]], [2**40 + 1], [0], [0]),
    # likewise y = 2^39 + 1/2, which only B^T r = e c_B refuses; read as
    # 2^39 it would hide the negative reduced cost of column 1
    ([[2, 2]], [0], [2**40 + 1, 2**40], [0]),
    # x = (24452795164001734, 16429241658933691) / 5: rounded to integers,
    # it passes B p = d s b in float64 sums that pass 2^53, which the guard
    # refuses to form
    ([[1, 1], [3, -2]], [8176407364587085, 8099980434827564], [0, 0], [0, 1]),
], ids=["primal", "dual", "guard"])
def test_a_float_reading_is_refused_unless_integer_checks_prove_it(a_rows, b, c, basis):
    assert certify_basis(a_rows, b, c, basis) is None
    check_resume(a_rows, b, c, basis, exact_optimum(a_rows, b, c))
