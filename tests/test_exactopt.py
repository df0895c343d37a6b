"""solve_l0 and solve_l1 against scipy's HiGHS on the same models, with every
emitted sequence checked by verify; the L0 lower bound against the frozen
optima and HiGHS brute force, and pinned over the n=6 classes; fake clocks
for the bound's and the search's deadlines; the join of the search's last
two levels on crafted targets and columns, pinned, and the sequences the
search emits, pinned by a hash; the decision of n rows, on the spectrum
the bound computed, against the frozen optima, a brute force over n-row
supports and the n=6 optima, its witnesses against Fraction adjugates, and
its rational roots against a scan of every fraction; one characteristic
polynomial and one column-space test per integer eigenvalue for the bound
and the decision together, by counted calls; the fraction-free step
against Fraction elimination, through a list-of-ints reference, and the
packed step of the search against that reference; the bound's column-space test and
characteristic polynomial against Fraction elimination; and the symmetries
the full pass prunes with against networkx's isomorphism matcher, the cut
matrix and the unpruned search."""

import hashlib
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from isingcoupler import (
    Graph, enumerate_labeled_graphs, random_er_graph, solve_l0, solve_l1, union_of_stars,
    verify, weighted_edge_by_edge,
)
from isingcoupler import exactopt
from isingcoupler.exactopt import (
    INCUMBENT_TIMEOUT, MAX_ROOT_COEFF, MAX_SCAN_RADIUS, OPTIMAL, _char_poly, _column_space,
    _cut_columns, _decide_n_rows, _default_incumbent, _l1_program, _lower_bound,
    _rational_roots, _search_supports, _symmetries,
)
from isingcoupler.graphs import (
    canonical_edge_mask, couplings, integer_units, pair_order, relabelings,
)
from isingcoupler.pulses import PulseSequence, canonicalize
from isingcoupler.simplex import _field_width, _pack, _packed_step, solve_lp

FROZEN_L0 = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "frozen.json").read_text())["l0"]


def sign_matrix(g):
    """Coupling signs s_r[i] * s_r[j] (one row per pair i < j, one column per
    canonical row r, which flips qubit i+1 when bit i of r is set) and the
    target coupling vector."""
    pairs = list(itertools.combinations(range(g.n), 2))
    q = np.array([[-1.0 if ((r << 1) >> i ^ (r << 1) >> j) & 1 else 1.0
                   for r in range(1 << (g.n - 1))] for i, j in pairs])
    weights = {(u, v): float(z) for u, v, z in g.edges}
    return q, np.array([weights.get(p, 0.0) for p in pairs])


def enumerated_l0(g, m=None):
    """Fewest canonical rows realizing g: the smallest support S for which
    HiGHS finds Q_S W = b, with strengths unbounded or, given m, |W| <= m."""
    q, b = sign_matrix(g)
    for size in range(q.shape[1] + 1):
        for support in itertools.combinations(range(q.shape[1]), size):
            if not support:
                if not b.any():
                    return 0
                continue
            res = linprog(np.zeros(size), A_eq=q[:, support], b_eq=b,
                          bounds=(None if m is None else -m, m), method="highs")
            if res.status == 0:
                return size
    raise AssertionError("no support realizes the graph")


def check_l0(g, res):
    assert res.status == OPTIMAL
    assert verify(res.sequence, g)
    assert res.objective == res.sequence.l0
    assert res.objective == enumerated_l0(g), g.edges


def paper_big_m(g, kind):
    """The strength bound M of the paper's big-M program for a unit-weight
    graph: the sum of |weights| (practical_sum), or the worst-case bound
    (3n-2)^((3n-1)/2) rounded up to an integer (theorem_bound)."""
    assert all(abs(z) == 1 for _, _, z in g.edges)
    if kind == "practical_sum":
        return max(float(sum(abs(z) for _, _, z in g.edges)), 1.0)
    root = math.isqrt((3 * g.n - 2) ** (3 * g.n - 1))
    return float(root + (root * root != (3 * g.n - 2) ** (3 * g.n - 1)))


@pytest.mark.parametrize("kind", ["practical_sum", "theorem_bound"])
@pytest.mark.parametrize("n", [3, 4])
def test_solve_l0_matches_highs_on_every_class(n, kind):
    """The unbounded optimum is also the optimum of the M-bounded program
    under either bound, so dropping big-M changes no answer here."""
    for g in enumerate_labeled_graphs(n, distinct_only=True):
        res = solve_l0(g)
        check_l0(g, res)
        assert res.objective == enumerated_l0(g, paper_big_m(g, kind)), g.edges


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_solve_l0_matches_highs_on_weighted_graphs(p):
    for seed in range(3):
        g = random_er_graph(4, p, (1, 2, 3), seed)
        check_l0(g, solve_l0(g))


def test_solve_l0_honours_its_time_limit():
    g = random_er_graph(6, 0.5, (1, 2, 3), 1)
    start = time.monotonic()
    res = solve_l0(g, time_limit=0.2)
    assert time.monotonic() - start < 0.2 + 0.3
    assert res.status == INCUMBENT_TIMEOUT
    assert verify(res.sequence, g) and res.objective == res.sequence.l0


@pytest.mark.parametrize("p, seed, construction, at_most", [
    (0.6, 1, 21, 11),  # the greedy order alone finds 11 rows in 0.02 s
    (0.8, 4, 25, 10),  # the narrow passes find 10 in 0.2 s; without them 12 after 3 s
])
def test_unfinished_solve_still_shrinks_the_construction(p, seed, construction, at_most):
    """At n=7 the search cannot finish, but it finds a support well below
    the construction it starts from (times on a 2-core VM)."""
    g = random_er_graph(7, p, (1, 2, 3), seed)
    assert weighted_edge_by_edge(g).l0 == construction
    res = solve_l0(g, time_limit=1.0)
    assert res.status == INCUMBENT_TIMEOUT
    assert verify(res.sequence, g) and res.objective == res.sequence.l0
    assert res.objective <= at_most


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(2, 4))
    weight = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    edges = [(i, j, z) for i, j in itertools.combinations(range(n), 2)
             if (z := draw(weight)) != 0]
    return Graph(n, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(weighted_graphs())
def test_solve_l0_never_loses_to_the_construction(g):
    res = solve_l0(g)
    assert res.status == OPTIMAL
    assert verify(res.sequence, g)
    assert res.objective == len(res.sequence.rows)
    assert res.objective <= weighted_edge_by_edge(g).l0
    if g.uniform_weight() is not None:
        assert res.objective <= union_of_stars(g).l0


def test_solve_l0_on_couplings_far_apart_in_size():
    """Couplings of 10^30 beside -1/7 scale b to entries of about 10^31, so
    the packed fields of the search are over 100 bits wide; the objective,
    node count and rows are those of the list-of-ints search."""
    g = Graph.from_edges(5, [(0, 1, 10**30), (1, 2, Fraction(-1, 7)), (2, 3, 3),
                             (3, 4, 10**30), (0, 4, 2)])
    res = solve_l0(g)
    assert res.status == OPTIMAL and verify(res.sequence, g)
    assert res.objective == 9 and res.nodes_explored == 41694
    assert res.sequence.rows == (0, 24, 28, 4, 18, 10, 14, 6, 8)


@pytest.mark.parametrize("n, nodes", [(3, 10), (4, 250), (5, 2747)])
def test_search_path_is_pinned_by_its_node_count(n, nodes):
    """Nodes summed over every class, including the lower bound's restricted
    searches, its early stop of the search, the subtrees the full pass
    prunes by symmetry and the rows the decision of n rows tries: the path
    moves only when pruning skips more or fewer subtrees, or the decision
    runs at other incumbents, never by a change to the search's arithmetic
    alone."""
    graphs = enumerate_labeled_graphs(n, distinct_only=True)
    assert sum(solve_l0(g).nodes_explored for g in graphs) == nodes


def lower_bound(g):
    bound, _, timed_out, _ = _lower_bound(g.n, couplings(g), _cut_columns(g.n), math.inf)
    assert not timed_out
    return bound


def test_lower_bound_is_tight_on_37_of_the_49_classes_up_to_n5():
    """Never above the frozen optimum; at n <= 4 also never above the
    HiGHS brute force."""
    tight = 0
    for n in (3, 4, 5):
        for g in enumerate_labeled_graphs(n, distinct_only=True):
            l0 = FROZEN_L0[str(n)][",".join(f"{u}-{v}" for u, v, _ in g.edges)]
            bound = lower_bound(g)
            assert bound <= l0, g.edges
            if n <= 4:
                assert bound <= enumerated_l0(g), g.edges
            tight += bound == l0
    assert tight == 37


@settings(max_examples=40, deadline=None)
@given(weighted_graphs())
def test_lower_bound_never_exceeds_brute_force_l0(g):
    assert lower_bound(g) <= enumerated_l0(g)


def scan_reads(g):
    """The clock reads of the bound's Gershgorin scan: one per integer of
    [-R, R], R the largest absolute row sum of the scaled coupling matrix."""
    row_sums = [0] * g.n
    for (i, j), v in zip(pair_order(g.n), integer_units(couplings(g))[0]):
        row_sums[i] += abs(v)
        row_sums[j] += abs(v)
    return 2 * max(row_sums) + 1


def test_a_timed_out_restricted_search_returns_only_a_proven_bound(monkeypatch):
    """A clock that lets the Gershgorin scan's 2R + 1 reads pass and then
    reads past the deadline times out the first restricted-search node.
    The bound returned then is still at most the frozen optimum."""
    timed_out_classes = 0
    for n in (3, 4, 5):
        for g in enumerate_labeled_graphs(n, distinct_only=True):
            b = couplings(g)
            reads = itertools.count()
            scan = scan_reads(g)
            monkeypatch.setattr(exactopt, "time", SimpleNamespace(
                monotonic=lambda: 0.0 if next(reads) < scan else 2.0))
            bound, _, timed_out, _ = _lower_bound(n, b, _cut_columns(n), 1.0)
            l0 = FROZEN_L0[str(n)][",".join(f"{u}-{v}" for u, v, _ in g.edges)]
            assert bound <= l0, g.edges
            timed_out_classes += timed_out
    assert timed_out_classes > 0


def test_a_bound_that_times_out_leaves_the_search_its_time(monkeypatch):
    """The bound gets half of the time limit.  A clock that reads 0 for
    solve_l0's start and the Gershgorin scan, then 3/4 of the limit, times
    out the bound's first restricted-search node but not the search, which
    still proves the frozen optimum; the empty graph needs no scan."""
    real_lower_bound = exactopt._lower_bound
    bound_timeouts = []

    def lower_bound_spy(*args):
        bound, nodes, timed_out, spectrum = real_lower_bound(*args)
        bound_timeouts.append(timed_out)
        return bound, nodes, timed_out, spectrum

    monkeypatch.setattr(exactopt, "_lower_bound", lower_bound_spy)
    for n in (3, 4, 5):
        for g in enumerate_labeled_graphs(n, distinct_only=True):
            reads = itertools.count()
            start_and_scan = 1 + scan_reads(g) if g.m else 1
            monkeypatch.setattr(exactopt, "time", SimpleNamespace(
                monotonic=lambda: 0.0 if next(reads) < start_and_scan else 7.5))
            res = solve_l0(g, time_limit=10.0)
            assert res.status == OPTIMAL and verify(res.sequence, g), g.edges
            assert res.objective == FROZEN_L0[str(n)][
                ",".join(f"{u}-{v}" for u, v, _ in g.edges)], g.edges
    assert sum(bound_timeouts) > 0


@pytest.mark.parametrize("n, b, entries, nodes", [
    # b = 5 col(2) - 3 col(12): reduced against b, col(2) and col(12) are
    # parallel
    (4, (-8, 8, 8, -2, -2, 2), [(2, 5), (12, -3)], 8),
    # b = 7 col(0) - 3 col(2): four columns share the residual's pivot field
    # without being parallel to it, and four others lead in other fields
    (5, (10, 4, 4, 4, 10, 10, 10, 4, 4, 4), [(0, 7), (2, -3)], 16),
    # no two columns span b: no pair of reduced columns is parallel
    (4, (1, 2, 3, 4, 5, 6), None, 8),
    # past col(6), the residual (0, 0, -1) leads in the top field
    (3, (2, 2, -1), [(6, Fraction(-3, 2)), (0, Fraction(1, 2))], 4),
    # b = 10^30 col(2) - 3 col(12): fields of 111 bits
    (4, (-10**30 - 3, 10**30 + 3, 10**30 + 3, 3 - 10**30, 3 - 10**30, 10**30 - 3),
     [(2, 10**30), (12, -3)], 8),
], ids=["minus-three-times", "shared-pivot-field", "miss", "top-field", "wide-fields"])
def test_last_level_leaves_are_pinned(n, b, entries, nodes):
    """With best = 3 the root is a join node: it counts one node per
    candidate, and accepts the pair the search that tried every last-level
    leaf accepted (the entries are that search's)."""
    assert _search_supports(_cut_columns(n), b, 3, 0, math.inf, (None,)) == (
        entries, nodes, False)


P = (1 << 61) - 1  # the join's fingerprint modulus
E = 1 << 60  # 2^60 + j rounds to 2^60 in float64 for |j| < 128
CUT4 = _cut_columns(4)
CUT4_FALLBACK = tuple(3 * x + P * y for x, y in zip(CUT4[2], CUT4[12]))
# b = 2 S + 5 T for S = col 2 and T = col 4: reduced against b, S and T
# become -5 D and 2 D, with D = (0, P, -1, 1) primitive
EXACT_KEY = {0: (0, 1, 1, 1), 2: (1, 0, 1, 0), 4: (1, P, 0, 1)}
EXACT_KEY_B = tuple(2 * s + 5 * t for s, t in zip(EXACT_KEY[2], EXACT_KEY[4]))
# reduced against b = (1, 0, 0, 0), cols 0 and 2 become (0, 1, 0, 0) and
# (0, 1, P, 0), one fingerprint; col 0 - col 4 = b
COLLIDING = {0: (1, 1, 0, 0), 2: (1, 1, P, 0), 4: (0, 1, 0, 0)}
PARALLEL = {0: (1, 1, 0), 2: (2, 2, 0), 4: (0, 1, 1)}
# col 0 leads the order, and cols 2 and 4 tie in float64 with col 6, col
# 0's partner, so they would hide it from a width-2 probe of col 0's
# children
HIDDEN = {0: (1, 0, 0), 2: (0, E + 5, 1), 4: (0, E + 7, 1), 6: (0, E + 1, 1)}
HIDDEN_B = (1 << 62, 3 * E + 3, 3)
# col 4 = b, but col 0 ties with it in float64 and comes first; col 2 is
# col 4 - col 0
SINGLE = {0: (1, E + 3, 0), 2: (0, -2, 0), 4: (1, E + 1, 0)}
SINGLE_B = SINGLE[4]


@pytest.mark.parametrize("cols, b, floor, widths, entries, nodes", [
    # col(2)'s column reduced against b has its pivot entry divisible by P;
    # divided by its content it meets col(12)'s fingerprint
    (CUT4, CUT4_FALLBACK, 0, (None,), [(12, P), (2, 3)], 8),
    # there the pivot entry stays divisible by P, so both key on +-D
    (EXACT_KEY, EXACT_KEY_B, 0, (None,), [(4, 5), (2, 2)], 3),
    # the shared fingerprint is rejected by the exact test
    (COLLIDING, (1, 0, 0, 0), 0, (None,), [(0, 1), (4, -1)], 3),
    # cols 0 and 2 are parallel, so they are not a pair although their
    # reduced columns are
    (PARALLEL, (1, 2, 1), 0, (None,), [(0, 1), (4, 1)], 3),
    ({t: PARALLEL[t] for t in (0, 2)}, (1, 2, 1), 0, (None,), None, 2),
    # the pair (0, 2) is found first, then the single col 4 after it
    (SINGLE, SINGLE_B, 0, (None,), [(4, 1)], 3),
    # ... unless the pair reaches floor
    (SINGLE, SINGLE_B, 2, (None,), [(0, 1), (2, 1)], 3),
    # ... in every pass: a probe's join ignores its width
    (SINGLE, SINGLE_B, 0, (2,), [(4, 1)], 3),
    (SINGLE, SINGLE_B, 0, (3,), [(4, 1)], 3),
    # a later single is a partner too; at floor this pair stands, with
    # strength 0 on col 0, as it did before the join
    ({t: SINGLE[t] for t in (0, 4)}, SINGLE_B, 2, (None,), [(0, 0), (4, 1)], 2),
    # col 0 with its first partner, col 6, in every pass
    (HIDDEN, HIDDEN_B, 0, (2,), [(0, 1 << 62), (6, 3)], 4),
    (HIDDEN, HIDDEN_B, 0, (3,), [(0, 1 << 62), (6, 3)], 4),
    (HIDDEN, HIDDEN_B, 0, (None,), [(0, 1 << 62), (6, 3)], 4),
    # col(6) is col(12)'s first partner, though not among its first two
    # later candidates in the root's order
    (_cut_columns(5), (-1, 3, 1, -3, 1, 3, -1, -1, 3, 1), 0, (2,), [(12, -2), (6, -1)], 16),
], ids=["content-fallback", "exact-key", "fingerprint-collision", "parallel-pair",
        "parallel-only", "single-after-pair", "floor-keeps-pair", "single-past-width",
        "single-past-width-3", "single-as-partner", "hidden-partner", "partner-in-width",
        "partner-in-full", "partner-re-sorted"])
def test_join_cases_are_pinned(cols, b, floor, widths, entries, nodes):
    """Crafted columns reach cases of the join that the cut matrix reaches
    only deep in a search or on couplings near 2^61.  The entries are those
    of the full pass before the join, which tried every last-level leaf by
    itself; a probe's join accepts the same set."""
    assert _search_supports(cols, b, 3, floor, math.inf, widths) == (entries, nodes, False)


@st.composite
def columns_and_targets(draw):
    """Three to seven nonzero integer columns, keyed as row masks, and a
    target of the same length: a single or a pair past the first few
    candidates is common, as it is not for the cut matrix of small n."""
    m = draw(st.integers(2, 4))
    vector = st.lists(st.integers(-2, 2), min_size=m, max_size=m).map(tuple)
    cols = draw(st.lists(vector.filter(any), min_size=3, max_size=7))
    return {2 * t: col for t, col in enumerate(cols)}, draw(vector)


@settings(max_examples=100, deadline=None)
@given(columns_and_targets())
def test_a_root_join_ignores_the_pass_width(case):
    """With best = 3 the root is a join node, so every width finds the same
    entries with the same nodes."""
    cols, b = case
    runs = [_search_supports(cols, b, 3, 0, math.inf, (width,)) for width in (2, 3, None)]
    assert runs[0] == runs[1] == runs[2]


def test_a_join_below_the_root_takes_partners_in_its_own_order():
    """A join node below the root gets its candidates in its parent's order
    and builds its own only when it finds a set.  Past col 0, cols 2, 4 and
    6 lie in one plane with the residual (0, 1, 1, 0): col 2 leads the
    join's order and has cols 6 and 4 as partners, in that order, though
    col 4 comes first in the root's."""
    cols = {0: (1, 0, 0, 0), 2: (0, 3, 2, 0), 4: (5, 0, 1, 0), 6: (0, 1, 3, 0)}
    assert _search_supports(cols, (100, 1, 1, 0), 4, 0, math.inf, (None,)) == (
        [(0, 100), (2, Fraction(2, 7)), (6, Fraction(1, 7))], 10, False)


def test_a_clock_past_the_deadline_at_the_first_leaf_keeps_the_incumbent(monkeypatch):
    """The width-2 pass finds s rows after r clock reads; the width-3 pass
    then tries the first candidate of each of the s - 3 levels above its
    first join node, which reads the clock before it reduces anything.  A
    clock that jumps past the deadline there times the search out with the
    width-2 pass's rows and s - 3 more nodes than that pass counted."""
    for n in (4, 5):
        for g in enumerate_labeled_graphs(n, distinct_only=True):
            cols, b = _cut_columns(n), couplings(g)
            best = len(canonicalize(_default_incumbent(g)).rows)
            reads = itertools.count()
            monkeypatch.setattr(exactopt, "time", SimpleNamespace(
                monotonic=lambda: next(reads) * 0.0))
            first, first_nodes, _ = _search_supports(cols, b, best, 0, math.inf, (2,))
            if first is None or len(first) < 2:
                continue
            above = max(len(first) - 3, 0)
            jump = next(reads) + above
            reads = itertools.count()
            monkeypatch.setattr(exactopt, "time", SimpleNamespace(
                monotonic=lambda: 0.0 if next(reads) < jump else 2.0))
            assert _search_supports(cols, b, best, 0, 1.0, (2, 3)) == (
                first, first_nodes + above, True), g.edges


def test_emitted_sequences_are_pinned():
    """The rows and strengths solve_l0 emits for every class up to n=5 and
    six weighted ER(5) graphs, pinned by their SHA-256 as the search emitted
    them before its last two levels became a join."""
    graphs = [g for n in (3, 4, 5) for g in enumerate_labeled_graphs(n, distinct_only=True)]
    graphs += [random_er_graph(5, 0.5, weights, seed)
               for weights in ((1, 2, 3), (1, -1)) for seed in range(3)]
    sequences = [solve_l0(g).sequence for g in graphs]
    text = json.dumps([[list(seq.rows), [str(w) for w in seq.strengths]] for seq in sequences])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ea6553d6ec94570e685ba5ebf3f37e9b2dbe2bc315d00d4fb11d2fc54242d125")


def test_lower_bound_of_a_zero_target_is_zero():
    assert lower_bound(Graph(4, ())) == 0


def test_lower_bound_over_the_n6_classes_is_pinned():
    """The bounds and the restricted searches' nodes, summed over the 156
    n=6 classes, where the node pin of solve_l0 (n=3..5) does not reach:
    they move only if a rank, a restricted set or the search changes."""
    pairs = pair_order(6)
    masks = {canonical_edge_mask(mask, 6) for mask in range(1 << len(pairs))}
    assert len(masks) == 156
    bounds = nodes = 0
    for mask in masks:
        g = Graph.unweighted(6, [uv for bit, uv in enumerate(pairs) if mask >> bit & 1])
        bound, more, timed_out, _ = _lower_bound(6, couplings(g), _cut_columns(6), math.inf)
        assert not timed_out
        bounds += bound
        nodes += more
    assert (bounds, nodes) == (768, 96555)


def decide(g):
    """The decision of n rows on the spectrum that g's lower bound computed."""
    b, cols = couplings(g), _cut_columns(g.n)
    *_, spectrum = _lower_bound(g.n, b, cols, math.inf)
    return _decide_n_rows(g.n, b, cols, spectrum, math.inf)


def n6_classes():
    """One graph per class of 6-vertex graphs, with its canonical edge mask."""
    pairs = pair_order(6)
    for mask in sorted({canonical_edge_mask(mask, 6) for mask in range(1 << len(pairs))}):
        yield mask, Graph.unweighted(6, [uv for bit, uv in enumerate(pairs) if mask >> bit & 1])


# the n=6 classes whose L0 is 7, by canonical edge mask, as the search
# proved them before the decision of n rows existed; every other n=6 class
# has L0 <= 6
N6_SEVEN_ROWS = {687, 695, 701, 703, 762, 763, 1781, 1881, 1885, 1915, 1916}


def some_n_rows_realize(g):
    """Whether b lies in the span of some g.n columns of the cut matrix: the
    float rank of [Q_S | b] equals that of Q_S for some g.n-subset S
    (numpy's batched SVD, on small integer matrices)."""
    q, b = sign_matrix(g)
    subsets = np.array(list(itertools.combinations(range(q.shape[1]), g.n)))
    qs = q.T[subsets].transpose(0, 2, 1)
    augmented = np.concatenate([qs, np.broadcast_to(b[:, None], (len(subsets), len(b), 1))], 2)
    return bool((np.linalg.matrix_rank(augmented) == np.linalg.matrix_rank(qs)).any())


def test_the_decision_of_n_rows_matches_l0_where_the_bound_is_n():
    """On every class up to n=6 whose lower bound is n, the decision says
    that no n rows realize b exactly when L0 > n: against the frozen optima
    and a brute force over all n-row supports up to n=5, and at n=6 against
    the optima the search proved without the decision.  Every witness is n
    rows that realize b."""
    cases = [(g, FROZEN_L0[str(n)][",".join(f"{u}-{v}" for u, v, _ in g.edges)] > n)
             for n in (3, 4, 5) for g in enumerate_labeled_graphs(n, distinct_only=True)]
    cases += [(g, mask in N6_SEVEN_ROWS) for mask, g in n6_classes()]
    answers = []
    for g, above_n in cases:
        if lower_bound(g) != g.n:
            continue
        answer, witness, _ = decide(g)
        assert answer is not above_n, g.edges
        if g.n < 6:
            assert answer == some_n_rows_realize(g), g.edges
        if answer:
            assert len(witness) == g.n, g.edges
            assert verify(PulseSequence.from_pairs(g.n, witness), g), g.edges
        answers.append((g.n, answer))
    assert [answers.count((n, False)) for n in (3, 4, 5, 6)] == [0, 1, 4, 11]
    assert [answers.count((n, True)) for n in (3, 4, 5, 6)] == [0, 2, 9, 41]


def test_a_clique_witness_has_the_strengths_of_the_adjugate():
    """A witness that the clique half finds, with t = sum(W) and A + tI
    invertible: W_i = det(A + tI) / s_i^T adj(A + tI) s_i for each row, and
    s_i^T adj(A + tI) s_j = 0 for i != j, in Fractions.  s^T adj(M) s' is
    minus the determinant of M bordered by the column s' and the row s."""
    cliques = 0
    graphs = [g for n in (4, 5) for g in enumerate_labeled_graphs(n, distinct_only=True)]
    for g in graphs + [g for _, g in n6_classes()]:
        if lower_bound(g) != g.n:
            continue
        answer, witness, _ = decide(g)
        if not answer:
            continue
        t = sum(w for _, w in witness)
        shifted = [[t if i == j else 0 for j in range(g.n)] for i in range(g.n)]
        for u, v, z in g.edges:
            shifted[u][v] = shifted[v][u] = z
        det = fraction_det(shifted)
        if not det:
            continue  # the singular half's witness
        signs = [[-1 if mask >> i & 1 else 1 for i in range(g.n)] for mask, _ in witness]
        for (_, w), s in zip(witness, signs):
            for s2 in signs:
                bordered = [row + [x] for row, x in zip(shifted, s2)] + [s + [0]]
                product = -fraction_det(bordered)
                assert product == (det / w if s2 is s else 0), g.edges
        cliques += 1
    assert cliques == 18


@pytest.mark.parametrize("g, decision_nodes, nodes", [
    (Graph.unweighted(6, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]), 133, 219),
    (random_er_graph(6, 0.5, (1, 2, 3), 3), 132, 167),
])
def test_the_bound_and_the_decision_share_one_spectral_pass(monkeypatch, g, decision_nodes,
                                                            nodes):
    """On the hard n=6 class and a weighted ER(6) graph (bound 6, L0 7),
    solve_l0 runs _char_poly once and _column_space once per integer
    eigenvalue of A (counted by numpy), although the decision of n rows runs
    and answers no: it reads the bound's polynomial, eigenvalues and
    restricted rows."""
    calls = {"_char_poly": 0, "_column_space": 0, "_decide_n_rows": []}
    for name in calls:
        def counted(*args, real=getattr(exactopt, name), name=name):
            result = real(*args)
            if name == "_decide_n_rows":
                calls[name].append((result[0], result[2]))  # the answer and nodes
            else:
                calls[name] += 1
            return result
        monkeypatch.setattr(exactopt, name, counted)
    res = solve_l0(g)
    assert (res.status, res.objective, res.nodes_explored) == (OPTIMAL, 7, nodes)
    assert verify(res.sequence, g)
    a = np.array(exactopt._coupling_matrix(g.n, couplings(g)), dtype=float)
    eigenvalues = {round(x) for x in np.linalg.eigvalsh(a) if abs(x - round(x)) < 1e-9}
    assert calls == {"_char_poly": 1, "_column_space": len(eigenvalues),
                     "_decide_n_rows": [(False, decision_nodes)]}


@st.composite
def integer_polynomials(draw):
    """A nonzero integer polynomial, highest degree first, with up to one
    leading zero: small random coefficients times up to two factors q x - p,
    which plant rational roots."""
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any))
    for _ in range(draw(st.integers(0, 2))):
        q, p = draw(st.integers(1, 3)), draw(st.integers(-4, 4))
        coeffs = [q * x - p * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    return [0] * draw(st.integers(0, 1)) + coeffs


@settings(max_examples=80, deadline=None)
@given(integer_polynomials())
def test_rational_roots_match_a_scan_of_every_fraction(coeffs):
    """Every p/q with 1 <= q <= |leading coefficient| and |p| <= |lowest
    nonzero coefficient|, and 0, tried by exact evaluation."""
    c = list(itertools.dropwhile(lambda x: not x, coeffs))
    lead, low = abs(c[0]), abs(next(x for x in reversed(c) if x))
    scan = {Fraction(p, q) for q in range(1, lead + 1) for p in range(-low, low + 1)
            if not sum(x * p ** (len(c) - 1 - i) * q ** i for i, x in enumerate(c))}
    if not c[-1]:
        scan.add(Fraction(0))
    assert _rational_roots(coeffs) == scan


def test_rational_roots_skip_a_coefficient_beyond_the_cap():
    assert _rational_roots([1, -MAX_ROOT_COEFF]) == {MAX_ROOT_COEFF}


def test_a_weight_beyond_the_cap_skips_the_decision():
    """On the n=5 class 0-1,0-2,0-4,1-2,1-3 (bound 5, L0 6), weight 100 makes
    the terms of adj(A + tI) exceed MAX_ROOT_COEFF: the decision is skipped
    and the search runs as it did without the decision (rows, strengths and
    nodes).  At weight 1 the decision settles the class at entry."""
    edges = [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)]
    heavy = Graph.from_edges(5, [(u, v, 100) for u, v in edges])
    # The Gershgorin scan finds the eigenvalue 0, so the bound stays 5.  The
    # lowest nonzero coefficient of det(tI + A) is 3 * 10^8, beyond
    # MAX_ROOT_COEFF: rational roots capped there would find no eigenvalue
    # and leave the trivial bound 1.  That is why the scan, not the rational
    # roots of det(tI + A), finds the eigenvalues.
    assert lower_bound(heavy) == 5
    assert decide(heavy) == (None, None, 0)
    res = solve_l0(heavy)
    assert (res.status, res.nodes_explored) == (OPTIMAL, 2606)
    assert res.sequence.rows == (0, 8, 16, 22, 28, 18)
    assert res.sequence.strengths == (25, 25, 25, -25, -25, -25)
    light = Graph.unweighted(5, edges)
    assert decide(light)[0] is False
    res = solve_l0(light)
    assert (res.status, res.nodes_explored, res.sequence.rows) == (
        OPTIMAL, 16, (0, 8, 16, 22, 28, 18))


@pytest.mark.parametrize("best", [5, 6])
def test_a_decision_of_no_floor_rows_stops_every_pass(best):
    """The decision runs once, when best first equals floor + 1: at entry
    from 5 rows on the path 3-0-1-2 (bound 4, L0 5), or at the first
    5-row set from 6.  An answer of no raises floor to best, so the search
    stops there with the set it has; True or None leaves the search as it
    was.  The decision's nodes are counted."""
    cols, b = _cut_columns(4), couplings(Graph.unweighted(4, [(0, 1), (0, 3), (1, 2)]))
    widths = (*exactopt._PROBE_WIDTHS, None)
    plain = _search_supports(cols, b, best, 4, math.inf, widths)
    calls = []

    def answering(answer):
        def decide_floor(deadline):
            calls.append(answer)
            return answer, None, 7
        return decide_floor

    for answer in (True, None):
        entries, nodes, timed_out = _search_supports(cols, b, best, 4, math.inf, widths,
                                                     decide=answering(answer))
        assert (entries, nodes - 7, timed_out) == plain
    entries, nodes, timed_out = _search_supports(cols, b, best, 4, math.inf, widths,
                                                 decide=answering(False))
    assert calls == [True, None, False] and not timed_out
    assert entries == plain[0] if best == 6 else entries is None
    assert nodes < plain[1] + 7


def fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def fraction_rank(cols):
    rows = [list(map(Fraction, row)) for row in zip(*cols)]
    rank = 0
    for c in range(len(cols)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def eliminate(u, v, piv, prev):
    """(v[piv] * u - u[piv] * v) // prev on lists of ints: the reference
    fraction-free step that _packed_step performs on packed columns."""
    f, g = v[piv], u[piv]
    return [(f * a - g * x) // prev for a, x in zip(u, v)]


@st.composite
def supports_and_targets(draw):
    """Cut columns for n <= 5, an ordered list of distinct masks to add as
    support columns, and an integer target, in their span or drawn at random."""
    n = draw(st.integers(2, 5))
    cols = _cut_columns(n)
    order = draw(st.lists(st.sampled_from(list(cols)), unique=True, max_size=len(cols)))
    if order and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(order), max_size=len(order)))
        b = [sum(k * cols[t][r] for k, t in zip(coeffs, order)) for r in range(len(cols[0]))]
    else:
        b = draw(st.lists(st.integers(-4, 4), min_size=len(cols[0]), max_size=len(cols[0])))
    return cols, order, b


@settings(max_examples=150, deadline=None)
@given(supports_and_targets())
def test_fraction_free_step_leaves_minors(case):
    """Add the drawn columns one by one as the search does (a column that
    reduces to zero is skipped), reducing every column and the target by
    eliminate.  Each reduced entry must then be the determinant of the
    support columns plus that column on the rows (pivot rows in order, then
    its own row); a column must reduce to zero exactly when it is dependent
    on the support, and the target exactly when it is in the span."""
    cols, order, b = case
    reduced = {t: list(v) for t, v in cols.items()}
    residual, prev = list(b), 1
    support, pivots = [], []
    for t in order:
        v = reduced[t]
        if not any(v):
            assert fraction_rank([cols[s] for s in support + [t]]) == len(support)
            continue
        piv = next(r for r, a in enumerate(v) if a)
        reduced = {t2: eliminate(u, v, piv, prev) for t2, u in reduced.items()}
        residual = eliminate(residual, v, piv, prev)
        support.append(t)
        pivots.append(piv)
        prev = v[piv]
    for u, original in [*((reduced[t], cols[t]) for t in cols), (residual, b)]:
        block = [cols[s] for s in support] + [original]
        for i, entry in enumerate(u):
            assert type(entry) is int
            if i in pivots:
                assert entry == 0
            else:
                assert entry == fraction_det([[c[r] for c in block] for r in pivots + [i]])
        assert (not any(u)) == (fraction_rank(block) == len(support))


@st.composite
def packed_chains(draw):
    """Cut columns for n <= 8, an ordered list of distinct masks to add as
    support columns, and an integer target with entries up to 10^30 in
    absolute value, in the span of a few cut columns or drawn at random."""
    n = draw(st.integers(2, 8))
    cols = _cut_columns(n)
    m = len(cols[0])
    order = draw(st.lists(st.sampled_from(list(cols)), unique=True, max_size=m + 2))
    if order and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-10**29, 10**29), min_size=1, max_size=8))
        b = [sum(c * cols[t][r] for c, t in zip(coeffs, order)) for r in range(m)]
    else:
        b = draw(st.lists(st.integers(-10**30, 10**30), min_size=m, max_size=m))
    return cols, order, b


def unpack(u, m, k):
    """The m balanced base-2^k digits of u, each in [-2^(k-1), 2^(k-1))."""
    digits = []
    for _ in range(m):
        x = u % (1 << k)
        x -= (x >> (k - 1)) << k
        digits.append(x)
        u = (u - x) >> k
    assert u == 0
    return digits


@settings(max_examples=150, deadline=None)
@given(packed_chains())
def test_packed_step_decodes_to_the_eliminate_chain(case):
    """Add the drawn columns one by one as the search does, reducing every
    column and the target both by eliminate and by _packed_step on the
    packed integers.  After each step the packed pivot row and entry are
    those of the list column, every packed column decodes entry for entry
    to its list, inside the field's bound, and is zero exactly when the
    list is."""
    cols, order, b = case
    m = len(b)
    k = _field_width(list(cols.values())[:m], [b])
    lists = {t: list(v) for t, v in cols.items()}
    lists[None] = list(b)  # the residual
    packed = {t: _pack(v, k) for t, v in lists.items()}
    prev = 1
    for t in order:
        v, pv = lists[t], packed[t]
        if not any(v):
            assert pv == 0
            continue
        piv, f, reduced = _packed_step(list(packed.values()), pv, k, prev)
        assert piv == next(r for r, a in enumerate(v) if a) and f == v[piv]
        lists = {t2: eliminate(u, v, piv, prev) for t2, u in lists.items()}
        packed = dict(zip(packed, reduced))
        prev = f
        for t2, u in lists.items():
            assert unpack(packed[t2], m, k) == u
            assert (packed[t2] == 0) == (not any(u))
            assert all(abs(x) < 1 << (k - 2) for x in u)


@st.composite
def symmetric_matrices(draw):
    """Small symmetric integer matrices, often singular after a shift."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    a = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        a[i][j] = a[j][i] = draw(entries)
    return a


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(), st.integers(-4, 4))
def test_char_poly_matches_fraction_determinant(a, lam):
    """det(lam I - a) is the polynomial's value at lam, and entry (i, j) of
    adj(lam I - a) = sum over k of lam^(n-k) M_k is minus the determinant
    of lam I - a bordered by the unit column e_j and the unit row e_i."""
    shifted = [[lam * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a)]
    coeffs, matrices = _char_poly(a)
    value = 0
    for c in coeffs:
        value = value * lam + c
    assert value == fraction_det(shifted)
    n = len(a)
    for i, j in itertools.product(range(n), repeat=2):
        bordered = [row + [int(r == j)] for r, row in enumerate(shifted)]
        bordered.append([int(c == i) for c in range(n)] + [0])
        adj = sum(lam ** (n - 1 - k) * m[i][j] for k, m in enumerate(matrices))
        assert adj == -fraction_det(bordered)


@st.composite
def matrices_and_vectors(draw):
    """A symmetric integer matrix with n <= 8 and entries up to about
    MAX_SCAN_RADIUS / (n - 1), so that a row can reach the largest radius
    the lower bound scans, either drawn entry by entry or as a sum of a few
    rank-one terms c x x^T (so often singular); and vectors to test against
    its column space: +-1 vectors, integer combinations of its columns and
    arbitrary ones."""
    n = draw(st.integers(1, 8))
    cap = MAX_SCAN_RADIUS // max(n - 1, 1)
    a = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            a[i][j] = a[j][i] = draw(st.integers(-cap, cap))
    else:
        for _ in range(draw(st.integers(0, n))):
            c = draw(st.integers(-cap // n, cap // n))
            x = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
            for i, j in itertools.product(range(n), repeat=2):
                a[i][j] += c * x[i] * x[j]
    vectors = draw(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
                            max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        vectors.append([sum(c * x for c, x in zip(k, row)) for row in a])
    vectors += draw(st.lists(st.lists(st.integers(-cap, cap), min_size=n, max_size=n),
                             max_size=2))
    return a, vectors


@settings(max_examples=150, deadline=None)
@given(matrices_and_vectors())
def test_column_space_matches_fraction_rank(case):
    """The rank is the Fraction rank of a, and a vector is inside exactly
    when appending it to the columns of a keeps that rank."""
    a, vectors = case
    rank, inside = _column_space(a, vectors)
    assert rank == fraction_rank(a)
    assert inside == [fraction_rank([*a, v]) == rank for v in vectors]


def highs_l1(g):
    q, b = sign_matrix(g)
    res = linprog(np.ones(2 * q.shape[1]), A_eq=np.hstack([q, -q]), b_eq=b,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("weights", [(), (1, 2, 3)], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_solve_l1_matches_highs(n, weights):
    for p, seed in itertools.product((0.3, 0.6, 0.9), range(2)):
        g = random_er_graph(n, p, weights, seed)
        res = solve_l1(g)
        assert res.status == OPTIMAL
        assert verify(res.sequence, g)
        assert res.objective == res.sequence.l1
        assert isinstance(res.objective, Fraction)
        assert float(res.objective) == pytest.approx(highs_l1(g), rel=1e-9, abs=1e-9)


def pair_merge(n, x):
    """The rows W_t = x[2t] - x[2t + 1] of every pair t with a nonzero
    column, in order of t, dropping a W_t of 0."""
    masks = list(_cut_columns(n))
    entries = []
    for t in sorted({j >> 1 for j, v in enumerate(x) if v}):
        w = x[2 * t] - x[2 * t + 1]
        if w != 0:
            entries.append((masks[t], w))
    return PulseSequence.from_pairs(n, entries)


@pytest.mark.parametrize("weights", [(), (1, 2, 3), (1, -1), (Fraction(1, 2), 3)],
                         ids=["unweighted", "one_two_three", "plus_minus_one", "half_three"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_solve_l1_reads_one_row_per_nonzero_column(n, weights):
    """Columns 2t and 2t + 1 of the L1 program are negations of each other,
    so the basic solution solve_lp returns is nonzero on at most one of
    them, and solve_l1's rows, one per nonzero column, are the pair merge."""
    a_rows, costs, floats = _l1_program(n)
    for p, seed in itertools.product((0.3, 0.6, 0.9), range(2)):
        g = random_er_graph(n, p, weights, seed)
        x = solve_lp(a_rows, couplings(g), costs, floats).x
        assert not any(x[j] and x[j + 1] for j in range(0, len(x), 2))
        seq = solve_l1(g).sequence
        expected = pair_merge(n, x)
        assert (seq.rows, seq.strengths) == (expected.rows, expected.strengths)


def test_solve_l1_of_one_vertex_is_the_empty_sequence():
    """n = 1 has no qubit pair, so the program has no row and nothing to
    realize."""
    res = solve_l1(Graph(1, ()))
    assert res.sequence == PulseSequence.empty(1) and res.sequence.rows == ()
    assert (res.objective, res.objective_kind, res.status, res.nodes_explored) == (
        0, "l1", OPTIMAL, 0)
    assert type(res.objective) is Fraction


def outcome(res):
    return res.objective, res.status, res.nodes_explored, res.sequence


def test_cut_columns_are_cached_read_only_and_shared_by_both_solvers():
    """Solves that share the cached columns at one n give what solves on
    freshly built columns give, and no caller can change the cache."""
    graphs = [random_er_graph(5, p, weights, 1) for p in (0.4, 0.8) for weights in ((), (1, 2, 3))]
    fresh = []
    for g in graphs:
        for solve in (solve_l0, solve_l1):
            _cut_columns.cache_clear()
            fresh.append(outcome(solve(g)))
    assert [outcome(solve(g)) for g in graphs for solve in (solve_l0, solve_l1)] == fresh
    cols = _cut_columns(5)
    assert cols is _cut_columns(5) and all(type(v) is tuple for v in cols.values())
    with pytest.raises(TypeError):
        cols[0] = (0,) * 10


def test_l1_program_is_cached_read_only_and_shared_across_graphs():
    """solve_l1 at n = 6, 7, 8, alternated with solve_l0 at the same n,
    gives what solves on a freshly built program give, and no caller can
    change the cached rows, costs or float arrays."""
    graphs = [g for n in (6, 7, 8) for g in (
        random_er_graph(n, 0.5, (), 2), random_er_graph(n, 0.5, (1, 2, 3), 2),
        Graph.unweighted(n, [(0, 1), (1, 2)]))]
    fresh = []
    for g in graphs:
        _l1_program.cache_clear()
        _cut_columns.cache_clear()
        fresh.append(outcome(solve_l1(g) if g.m > 2 else solve_l0(g)))
    assert [outcome(solve_l1(g) if g.m > 2 else solve_l0(g)) for g in graphs] == fresh
    for n in (6, 7, 8):
        rows, costs, floats = _l1_program(n)
        assert _l1_program(n)[2] is floats
        assert type(rows) is type(costs) is tuple and all(type(row) is tuple for row in rows)
        assert np.array_equal(floats[0], rows) and np.array_equal(floats[1], costs)
        for array in floats:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


@pytest.mark.parametrize("solve", [solve_l0, solve_l1])
def test_exact_solvers_refuse_large_instances(solve):
    g = random_er_graph(9, 0.5, (), 0)
    with pytest.raises(ValueError, match="construction"):
        solve(g)


def symmetry_cases():
    """Every class up to n=5, and unweighted and weighted ER graphs at n=6,
    with weights of one sign and of both signs."""
    graphs = [g for n in range(2, 6) for g in enumerate_labeled_graphs(n, distinct_only=True)]
    graphs += [random_er_graph(n, p, weights, seed)
               for n in (4, 5, 6) for p in (0.2, 0.5, 0.8) for weights in ((), (1, 2, 3), (1, -1))
               for seed in range(2)]
    graphs += [Graph.unweighted(6, [(i, (i + 1) % 6) for i in range(6)]),
               Graph.unweighted(6, [(0, 1), (2, 3), (4, 5)]),
               Graph(6, ((0, 1, Fraction(1)), (2, 3, Fraction(-1)), (4, 5, Fraction(1, 2))))]
    return graphs


def networkx_automorphisms(g):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_weighted_edges_from(g.edges)
    matcher = GraphMatcher(graph, graph, edge_match=lambda e, f: e["weight"] == f["weight"])
    return sum(1 for _ in matcher.isomorphisms_iter())


def test_automorphisms_match_networkx():
    """The rows of the relabeling table that ``_symmetries`` keeps as
    automorphisms, those whose pair map leaves the scaled couplings
    unchanged, are exactly the weight-preserving automorphisms."""
    for g in symmetry_cases():
        b_int = np.array(integer_units(couplings(g))[0])
        kept = (b_int[relabelings(g.n)[1]] == b_int).all(axis=1)
        assert kept.sum() == networkx_automorphisms(g), g.edges


def test_every_symmetry_permutes_the_cut_columns_and_fixes_b():
    """Each map is a permutation of the columns, and some signed permutation
    P of the qubit pairs sends b to itself and every column t to column
    g(t); P is solved from the cut matrix in floats, then checked exactly."""
    for g in symmetry_cases():
        cols = _cut_columns(g.n)
        q = np.array(list(cols.values())).T
        b = np.array([float(v) for v in couplings(g)])
        maps = _symmetries(g.n, couplings(g))
        assert not (maps == np.arange(q.shape[1])).all(axis=1).any()
        for image in maps:
            assert sorted(image) == list(range(q.shape[1]))
            p = np.rint(q[:, image] @ np.linalg.pinv(q)).astype(int)
            assert (np.abs(p).sum(axis=0) == 1).all() and (np.abs(p).sum(axis=1) == 1).all()
            assert (p @ q == q[:, image]).all() and (p @ b == b).all(), g.edges


def test_a_symmetry_maps_an_optimal_sequence_to_one():
    for g in symmetry_cases():
        if g.n > 5:
            continue
        seq = solve_l0(g).sequence
        for image in _symmetries(g.n, couplings(g)):
            moved = PulseSequence(g.n, tuple(int(image[t >> 1]) << 1 for t in seq.rows),
                                  seq.strengths)
            assert verify(moved, g), g.edges


@pytest.mark.parametrize("widths", [(2, 3, 4, None), (None,)], ids=["probes", "full-only"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_pruning_leaves_the_found_support_unchanged(n, widths):
    """The support search with the symmetries, with every other one of them
    (any subset is sound, as a cap keeps) and with none finds the same
    entries from the construction down to floor 0; pruning only skips
    nodes.  Without the probe passes, the full pass must find the first
    best set itself.  At n=3 the probe passes leave the full pass at most 3
    rows to beat, so its root is a join node, which prunes nothing."""
    graphs = list(enumerate_labeled_graphs(n, distinct_only=True))
    graphs += [random_er_graph(n, p, weights, seed)
               for p in (0.4, 0.7) for weights in ((1, 2, 3), (1, -1)) for seed in range(3)]
    skipped = 0
    for g in graphs:
        cols, b = _cut_columns(n), couplings(g)
        best = len(canonicalize(_default_incumbent(g)).rows)
        maps = _symmetries(n, b)
        runs = [_search_supports(cols, b, best, 0, math.inf, widths, symmetries)
                for symmetries in (tuple, lambda: maps[::2], lambda: maps)]
        assert runs[0][0] == runs[1][0] == runs[2][0], g.edges
        assert not any(timed_out for _, _, timed_out in runs)
        assert runs[0][1] >= runs[1][1] >= runs[2][1]
        skipped += runs[0][1] - runs[2][1]
    assert (skipped > 0) == (n > 3 or widths == (None,))
