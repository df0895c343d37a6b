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
Only b depends on the graph: the rows, the costs and their float64 forms
are built once per n (``_l1_program``).  Each canonical row's W- column
negates its W+ column, so the float tableau stores the pair once, and a
basic solution has at most one nonzero part per pair: W is read off the
pairs that have one.

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
A join node (below) builds its order only when it finds a set.
Passes that try only the first few candidates at each node above the join
run before the full search, in the same call; they find small supports
early, which tightens the bound when the full search cannot finish in time.
Floats only order the search; every decision to skip, prune or accept is
exact.

Elimination runs incrementally and exactly, on b scaled to integers, with
the fraction-free step of ``simplex`` (``_packed_step``; ``simplex`` owns
the packing and the field width).  Each column, and the residual, is one
Python integer with a k-bit field per pair row.  The join decodes fields
itself, in ``lead``, in the key inlined in ``join`` and in
``fingerprint``'s content fallback: one decoding call per candidate
measured 3-4% slower.  Adding a column v with pivot row r (its first
nonzero entry) replaces every other candidate column u, and the residual
of b, by (v[r] u - u[r] v) / prev, with prev the pivot of the column
added before v (1 at the root).  Each entry of a reduced column is then
the minor of [support | column] on the support's pivot rows, in order,
and the entry's own row, so:

- a column that reduces to zero lies in the span of the support, and is
  skipped as dependent;
- a residual that reduces to zero means b lies in the span, so the support
  realizes the graph; ``simplex._solve_integer`` then solves the support
  system once for the exact strengths.  A nonzero residual is a miss.

The last two levels are a join.  A node whose support is within two
columns of best (len(support) + 3 >= best) with a nonzero residual R runs
one step of all its candidates against R, as if R were the next support
column: red_v = (R[p] v - v[p] R) / prev, with p R's pivot row.  red_v is
linear in v and zero exactly when v is parallel to R, so:

- support + [v] realizes b exactly when red_v = 0 (a single);
- for candidates u and v that are not parallel (a v parallel to u is
  dependent once u is added, so it is no child of u), support + [u, v]
  realizes b exactly when R lies in span(u, v), that is when some nonzero
  a u + c v is a multiple of R, that is when red_u and red_v are parallel
  or one of them is zero (a pair).  Pairs are sought only when
  len(support) + 3 = best: a node one column from best, left by a drop
  of best, accepts singles only.

Parallel vectors have their first nonzero entry in the same row, and v is
parallel to w exactly when v[s] w = w[s] v there.  Each nonzero red_v is
keyed by its pivot field s and red_v / red_v[s] mod P, P = 2^61 - 1,
computed on the packed integer: w mod P is linear in w's fields, so
parallel columns share a key.  The key is only a hash: 2^61 = 1 mod P
folds the fields onto 61 bit positions, so columns that are not parallel
may share one too, and every shared key is confirmed by the exact test.
When red_v[s] = 0 mod P, red_v is divided by its content (the gcd of its
fields) first, and keyed exactly by that primitive column, with its sign
made positive at s, if its entry at s still vanishes mod P.  A node then
costs one step over its c candidates instead of c children and their
leaves, and it counts c nodes.

A join node accepts, in every pass, the set that the two levels below it
would accept in the full pass, searched one candidate at a time: the first
candidate u in the node's order that is a single or has a later partner;
u alone if it is a single, else u with its first partner after it in that
order, and then, unless the pair reaches floor, the first later single.
A pass's width limits only the nodes above the join.  Each node projects
its parent's float columns and orders its candidates itself: any other
node on entry, a join node only when a single or a confirmed pair exists,
which is rare.  A join node skips no candidate by symmetry (see below).

Before the search, ``_lower_bound`` proves a lower bound on L0, and the
search stops as soon as its incumbent meets it.  A realization with k rows
S (k x n, +-1 entries) and strengths W satisfies S^T diag(W) S = A + tI,
with t = sum(W) and A the symmetric coupling matrix, scaled to integers.
So rank(A + tI) <= k.  A minimum realization has independent columns, so
its W, and with it t, is rational; when k < n, A + tI is singular, and
lambda = -t is a rational, hence integer, eigenvalue of A with
r = rank(A - lambda I) <= k.  When r = k, the k rows span exactly the
column space of A - lambda I, so each is a "restricted" row: one whose
+-1 vector lies in that column space.  Hence

    bound = min(n, min over integer eigenvalues lambda of c_lambda),

with c_lambda = r if at most r restricted rows realize b (the support search
over the restricted columns, stopping at the first set found) and r + 1
otherwise; 0 when b = 0.  The optimum's own lambda has c_lambda <= L0, so
the bound is sound.  Every decision is made in integers: the eigenvalues
are the integers lambda in the Gershgorin interval [-R, R] (R the largest
absolute row sum of A) at which det(tI + A), one polynomial computed by
the Faddeev-LeVerrier recurrence, vanishes at t = -lambda.  At each
such root, ``_column_space`` adds the columns of A - lambda I one by one
with the search's packed step and reduces every row's +-1 vector in the
same calls: the rank is the number of pivots, and a row is restricted
exactly when its vector reduces to zero.  No nullspace basis is built.
A radius above MAX_SCAN_RADIUS skips the scan, which only lets the search
run longer.

When the bound is n, the search's floor can still rise by one.  The
moment the incumbent has n + 1 rows (at entry, or when the search finds
such a set), ``_decide_n_rows`` decides whether some n rows realize b;
when none do, the floor becomes n + 1 and every pass stops.  A bound of n
means that no set of fewer than n rows realizes b, and that every integer
eigenvalue lambda of A is simple: rank(A - lambda I) = n - 1.  An n-row
realization then has nonzero strengths, and one of two kinds:

- A + tI invertible.  Then S is invertible and S (A + tI)^-1 S^T =
  diag(1/W), so the rows are pairwise orthogonal under adj(A + tI), each
  with a nonzero self-product.  Conversely, any n such rows realize b,
  with W_i = det(A + tI) / (s_i^T adj(A + tI) s_i), and sum(W) = t
  follows from the diagonal.  adj(A + tI) is sum over k of t^(n-k) M_k,
  with M_k the Faddeev-LeVerrier matrices of -A, so every pair of rows has
  an integer polynomial s^T adj(A + tI) s'.  W, hence t, is rational (the
  n columns are independent), and t is a root of the polynomial of some
  pair of the set: if every pair's polynomial vanished identically, the
  rows would realize b at infinitely many t, so their columns would be
  dependent and fewer rows would do.  So the rational roots of the
  distinct nonzero pair polynomials (``_rational_roots``) are the only t
  to try; at each one where det(A + tI) != 0, a clique search looks for n
  rows pairwise orthogonal there (the pairs whose polynomial vanishes at
  t or identically) with nonzero self-products.
- A + tI singular, so t = -lambda for an integer eigenvalue lambda.  S is
  singular (an invertible S would force a zero strength), and S y = 0
  makes y a null vector of A - lambda I.  Every row is orthogonal to y,
  which spans the nullspace, so every row is a restricted row of lambda:
  the restricted search of the bound, rerun with best n + 1 and floor n,
  decides this kind.

The decision does no spectral work of its own: it reads the bound's
det(tI + A), its M_k, its integer eigenvalues and their restricted rows.
The clique half runs first, as the cheaper one: over the n=6 classes of
bound 6 it tries at most a few hundred rows, while a restricted search
can take thousands of nodes (7,010 on one class) to find its set or fail.
The decision is skipped, which only lets the search run longer, when the
absolute entries of some M_k sum beyond MAX_ROOT_COEFF: then int64 might
not hold the pair polynomials, whose coefficients that sum bounds.  The
decision's nodes are one per row tried on top of a partial clique (the
empty one included) and those of its restricted searches.

The bound never changes the emitted sequence, and neither does the
decision.  The search runs its passes exactly as without them and accepts
only a strictly smaller support, and no support below the floor exists; so
stopping when the incumbent meets the floor only skips the part of the
search that could not have replaced it.

The full pass also prunes by symmetry, in the spirit of orbital branching
(Ostrowski et al., Math. Prog. 126, 2011).  ``_symmetries`` lists column
maps g that fix b: a vertex permutation that preserves A (weights and signs
included), followed by an XOR with a union of connected components of A
and canonicalization.  The permutations are the rows of the relabeling
table ``graphs.relabelings(n)`` (which also keys the graph classes) whose
pair map leaves b unchanged.  The XOR flips only couplings between
components, which are zero in b, so g acts on the qubit pairs as a signed
permutation M with M b = b and M col(t) = col(g t); it maps independent
sets to independent sets and realizing sets to realizing sets of the same
size.
At a node with support P, the full pass skips candidate c when some g
that fixes every column of P maps c to a candidate earlier in the node's
order, or to a column that is not a candidate there (such a column is
independent of P, so some ancestor ordered it before the branch taken).
Either way each set S below c has an image g(S), of the same size and
realizing b exactly when S does, whose path leaves S's path at an earlier
branch of a node on it.  The orders of those nodes are fixed before c is
reached, so the unpruned search tries g(S) before S and never accepts S.
Skipping only such subtrees, the search accepts the same sets in the same
order and emits the same sequence; only ``nodes_explored`` falls.  Each
skip is sound on its own, as the search without it accepts no set in the
skipped subtree, so skipping only some of them accepts the same sets too:
join nodes skip none, and need neither the skip test nor the stabilizers.

The rule is sound for any subset of the symmetries, so at most
MAX_SYMMETRIES maps are kept: an n=8 graph with one edge has 92,159.  The
maps are built only when the full pass starts with best above floor, so
solves that the probe passes settle pay nothing for them.  The probe passes
stay unpruned: above the join they try only the first few candidates of a
node, so the image of a skipped set may lie outside them.  The restricted
searches of the bound stay unpruned too; pruning them would skip only 1.5%
more nodes over the classes up to n=5.

Instances above MAX_EXACT_N qubits are refused; the constructions in
``constructions`` cover them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .constructions import union_of_stars, weighted_edge_by_edge
from .graphs import Graph, couplings, integer_units, pair_order, relabelings
from .pulses import PulseSequence, coupling_sign, sequence_to_json
# float_solve is unused here; perfbench's tracing test still checks that this
# module holds the traced simplex.float_solve, and perfbench changes only
# together with the benchmark.
from .simplex import (  # noqa: F401
    _field_width, _integer_floats, _pack, _packed_step, _solve_integer, float_solve, solve_lp)

MAX_EXACT_N = 8
# Largest Gershgorin radius R the lower bound scans for integer eigenvalues:
# one Horner evaluation per integer in [-R, R], about 20 ms at the cap for
# n=8 on a 2-core VM.  Unweighted graphs have R <= n-1.
MAX_SCAN_RADIUS = 10_000
# Largest sum of the absolute entries of a term M_k of adj(A + tI) for which
# the decision of n rows runs.  It bounds every coefficient of the pair
# polynomials, so int64 holds them, and trial division for their rational
# roots (up to the square root: about 0.7 ms per distinct coefficient at the
# cap on a 2-core VM) stays cheap.  Unweighted graphs stay far below it.
MAX_ROOT_COEFF = 10 ** 8
DEFAULT_TIME_LIMIT = 600.0
# Most column maps the full pass prunes with (see ``_symmetries``): at the
# cap, building them takes at most about 15 ms at n=8 on a 2-core VM, after
# about 40 ms for the n=8 relabeling table once per process.
MAX_SYMMETRIES = 1 << 12

# candidates tried per node in the passes before the full search
_PROBE_WIDTHS = (2, 3, 4)
# the Mersenne prime 2^61 - 1, modulus of the join's fingerprints
_PRIME = (1 << 61) - 1

OPTIMAL = "optimal"
INCUMBENT_TIMEOUT = "incumbent_timeout"


@dataclass
class OptResult:
    sequence: PulseSequence
    objective: Fraction
    objective_kind: str  # "l0" | "l1"
    status: str
    nodes_explored: int
    wall_time: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "objective": str(self.objective),
                "objective_kind": self.objective_kind,
                "sequence": json.loads(sequence_to_json(self.sequence)),
                "nodes_explored": self.nodes_explored,
                "wall_time_ms": round(self.wall_time * 1000, 3),
            }
        )


@functools.cache
def _cut_columns(n: int) -> Mapping[int, tuple[int, ...]]:
    """The cut matrix by columns: each canonical row mask (bit 0 clear, in
    increasing order) to its coupling signs in ``pair_order(n)``.  Built
    once per n; the mapping is read-only and holds tuples, so no caller can
    alter the cached copy."""
    pairs = pair_order(n)
    return MappingProxyType(
        {t: tuple(coupling_sign(t, i, j) for i, j in pairs) for t in range(0, 1 << n, 2)})


@functools.cache
def _l1_program(n: int) -> tuple[tuple, tuple, tuple[np.ndarray, np.ndarray]]:
    """The parts of the L1 program that depend only on n: the rows of
    [Q | -Q], column 2t holding cut column t and column 2t + 1 its
    negation, the unit costs, and both as exact float64 arrays for the
    float engine and the certificate.  Built once per n; tuples and
    read-only arrays, so no caller can alter the cached copy."""
    rows = tuple(tuple(x for q in row for x in (q, -q)) for row in zip(*_cut_columns(n).values()))
    costs = (1,) * (1 << n)
    floats = _integer_floats(rows, costs)
    for array in floats:
        array.flags.writeable = False
    return rows, costs, floats


def _default_incumbent(g: Graph) -> PulseSequence:
    if g.uniform_weight() is not None:
        return union_of_stars(g)
    return weighted_edge_by_edge(g)


class _Timeout(Exception):
    pass


def _ordered(floats, r_float):
    """Order candidates by |<r, v>| / |v|, the share of the float residual r
    each would remove next (a heuristic: it orders the search, never prunes).
    floats holds the candidates' float columns.  Returns the order, as a list
    of Python ints (which index lists faster than numpy integers), ties in
    their old order, and floats in that order.

    The norms run the ufuncs that ``np.linalg.norm(floats, axis=1)`` runs,
    without its argument handling, so they are bit for bit the same."""
    norms = np.maximum(np.sqrt(np.add.reduce(floats * floats, axis=1)), 1e-12)
    order = (-np.abs(floats @ r_float) / norms).argsort(kind="stable")
    return order.tolist(), floats[order]


def _child_order(floats, r_float, pos, kept):
    """The order of a child's candidates, for the candidate at position pos
    of a node whose candidates have the float columns floats (in the node's
    order) and whose float residual is r_float.  The child keeps the later
    candidates at offsets kept after pos; each, and the residual, is
    projected off the float column at pos.  Returns ``_ordered``'s order
    (indexing kept), the projected columns in that order and the child's
    float residual."""
    f_pos = floats[pos]
    u = f_pos / max(np.sqrt(f_pos.dot(f_pos)), 1e-12)
    later = floats[pos + 1:][kept]
    r_child = r_float - (r_float @ u) * u
    return (*_ordered(later - (later @ u)[:, None] * u, r_child), r_child)


def _search_supports(cols, b, best, floor, deadline, widths, symmetries=tuple, decide=None):
    """Smallest set of the columns cols (canonical row mask to coupling
    signs) whose span holds the target couplings b.

    Only sets of fewer than best columns are accepted.  Each entry of
    widths is one pass, trying that many candidates per node above the
    join (None: all), and every pass stops as soon as a set of at most
    floor columns is found.  symmetries() builds column maps (as
    ``_symmetries`` returns them, none by default) that fix b and permute
    cols.  A full pass that starts with best above floor calls it, and
    skips the subtrees the maps send to earlier ones; the other passes
    ignore them.  decide(deadline), when given, answers as
    ``_decide_n_rows`` does whether floor columns realize b; it runs once,
    when best first equals floor + 1 (at entry or on accepting a set), and
    an answer of False raises floor to best, which stops every pass.  Its
    nodes are counted, and it may raise _Timeout.  Returns (entries, nodes,
    timed_out) with entries the (row mask, strength) pairs of the best set
    found, or None when no set was accepted.
    """
    b_int, _ = integer_units(b)
    # a minor holds at most m = len(b_int) cut columns, all of norm^2 m, and b_int
    k = _field_width(itertools.islice(cols.values(), len(b_int)), [b_int])
    half, mask = 1 << (k - 1), (1 << k) - 1
    best_entries = None
    nodes = 0
    inverses = {}  # pivot entry to its inverse mod _PRIME

    def accept(trial):
        nonlocal best, best_entries
        d, (num,) = _solve_integer([*zip(*(cols[s] for s in trial))], [b])
        best = len(trial)
        best_entries = [(s, Fraction(w, d)) for s, w in zip(trial, num)]
        settle()

    def settle():
        """Once best is floor + 1, ask decide whether floor columns realize
        b, and raise floor to best when none do."""
        nonlocal decide, floor, nodes
        if decide is not None and best == floor + 1:
            answer, _, more = decide(deadline)
            decide = None
            nodes += more
            if answer is False:
                floor = best

    def lead(w):
        """The shift s of the nonzero packed w's pivot field (the field of
        its lowest set bit) and its entry w[s]."""
        s = ((w & -w).bit_length() - 1) // k * k
        return s, ((w >> s) + half & mask) - half

    def parallel(x, y):
        """Whether the nonzero packed x and y are parallel: then they share
        their pivot field s, and x[s] y = y[s] x."""
        (s, x_s), (t, y_t) = lead(x), lead(y)
        return s == t and x_s * y == y_t * x

    def fingerprint(w):
        """A key that parallel nonzero packed columns share: the pivot field
        and w / w[s] mod _PRIME, which is linear in w's fields (see the
        module docstring)."""
        s, w_s = lead(w)
        if not w_s % _PRIME:
            # w / gcd(fields) is primitive, so all parallel columns reach
            # the same one up to sign, and key on it exactly if w[s] still
            # vanishes mod _PRIME
            fields, rest = [], w
            for _ in b_int:
                fields.append((rest + half & mask) - half)
                rest = (rest - fields[-1]) >> k
            g = math.gcd(*fields)
            w, w_s = w // g, w_s // g
            if not w_s % _PRIME:
                return s, None, w if w_s > 0 else -w
        inverse = inverses.get(w_s)
        if inverse is None:
            inverse = inverses[w_s] = pow(w_s, -1, _PRIME)
        return s, w % _PRIME * inverse % _PRIME

    def join(support, prev, ts, vs, residual, order):
        """Accept the set that the last two levels below support would
        accept in the full pass: a candidate alone, or with a later one
        below it (see the module docstring).  Arguments are as in
        ``extend``.

        Candidate i alone is a hit when its column reduced against the
        residual, red_i, is zero, and i with j when red_j is zero or
        parallel to red_i and v_i is not parallel to v_j.  Pairs are sought
        only when len(support) + 3 == best.
        """
        nonlocal nodes
        if time.monotonic() > deadline:
            raise _Timeout
        nodes += len(vs)
        _, _, reds = _packed_step(vs, residual, k, prev)
        pairs = len(support) + 3 == best
        singles, first, groups = [], {}, {}  # groups: the keys two or more share
        for i, w in enumerate(reds):
            if not w:
                singles.append(i)
            elif pairs:  # fingerprint(w), inlined while w[s]'s inverse is known
                s = ((w & -w).bit_length() - 1) // k * k
                inverse = inverses.get(((w >> s) + half & mask) - half)
                key = (s, w % _PRIME * inverse % _PRIME) if inverse else fingerprint(w)
                j = first.setdefault(key, i)
                if j != i:
                    groups.setdefault(key, [j]).append(i)
        mates = {}  # i to the j whose pair with i is a hit, singles aside
        for group in groups.values():
            for i, j in itertools.combinations(group, 2):
                if parallel(reds[i], reds[j]) and not parallel(vs[i], vs[j]):
                    mates.setdefault(i, []).append(j)
                    mates.setdefault(j, []).append(i)
        if not singles and not mates:
            return
        picks = order()[0]
        rank = {i: q for q, i in enumerate(picks)}
        for i in picks:
            if not reds[i]:
                accept(support + [ts[i]])
                return
            later = [j for j in [*mates.get(i, ()), *singles] if rank[j] > rank[i]] if pairs else ()
            if later:
                accept(support + [ts[i], ts[min(later, key=rank.get)]])
                # every single comes after i, or i would not be reached
                if singles and best > floor:
                    accept(support + [ts[min(singles, key=rank.get)]])
                return

    def extend(support, prev, ts, vs, residual, order, width, stab=()):
        """Try each of the first width candidate columns on top of support.

        Candidate ts[i] has the packed column vs[i], reduced against the
        support's columns and nonzero; residual is b_int packed and reduced
        the same way, and prev is the pivot of the support's last column (1
        at the root).  order() returns the node's order (a list indexing
        ts), the float columns of the candidates in that order and the
        float residual: the same reductions done by float projection, used
        only to order candidates.  stab holds symmetries that fix every
        support column but the last; the node keeps those that fix the
        last one too, and skips a candidate that one of them maps to an
        earlier candidate, or to a column that is not a candidate here.  A
        node within two columns of best is a join node (``join``), which
        ignores width, orders its candidates only when it finds a set and
        prunes none.
        """
        nonlocal nodes
        if best <= floor or len(support) + 1 >= best:
            return
        # (a zero residual, b = 0 at the root, has no pivot field)
        if residual and len(support) + 3 >= best:
            join(support, prev, ts, vs, residual, order)
            return
        picks, floats, r_float = order()
        ts, vs = [ts[i] for i in picks], [vs[i] for i in picks]
        if len(stab) and support:
            stab = stab[stab[:, support[-1] >> 1] == support[-1] >> 1]
        if len(stab):
            idx = np.array(ts, dtype=np.intp) >> 1
            here = np.arange(len(idx))
            rank = np.full(stab.shape[1], -1)
            rank[idx] = here
            skip = (rank[stab[:, idx]] < here).any(axis=0).tolist()
        for pos, t in enumerate(ts[:width]):
            if best <= floor or len(support) + 1 >= best:
                return
            if len(stab) and skip[pos]:
                continue
            nodes += 1
            if time.monotonic() > deadline:
                raise _Timeout
            v = vs[pos]
            trial = support + [t]
            expand = len(trial) + 1 < best
            # the residual with, below the last level, the later candidates
            _, f, (rest, *reduced) = _packed_step([residual, *vs[pos + 1:]] if expand
                                                  else [residual], v, k, prev)
            if not rest:
                accept(trial)
                return
            if expand:
                kept = [i for i, v2 in enumerate(reduced) if v2]
                extend(trial, f, [ts[pos + 1 + i] for i in kept], [reduced[i] for i in kept],
                       rest, functools.partial(_child_order, floats, r_float, pos, kept), width,
                       stab)

    try:
        b_float = np.array([float(v) for v in b])
    except OverflowError:
        raise ValueError("a coupling is beyond float64 range, in which the L0 search "
                         "orders its candidates") from None
    root_order = functools.cache(
        lambda: (*_ordered(np.array(list(cols.values()), dtype=float), b_float), b_float))
    vs = [_pack(v, k) for v in cols.values()]
    try:
        settle()
        for width in widths:
            extend([], 1, list(cols), vs, _pack(b_int, k), root_order, width,
                   symmetries() if width is None and best > floor else ())
    except _Timeout:
        return best_entries, nodes, True
    return best_entries, nodes, False


def _symmetries(n: int, b) -> np.ndarray:
    """Column maps that fix the target couplings b, the identity left out.

    Each composes a vertex automorphism pi of A (the integer-scaled coupling
    matrix, weights and signs included: a row of ``graphs.relabelings(n)``
    whose pair map leaves the scaled b unchanged) with an XOR by a union m
    of connected components of A, then canonicalizes: row mask t goes to
    pi(t) ^ m, complemented when bit 0 is set.  Row k of the result sends
    column t >> 1 to the column of that image.  At most MAX_SYMMETRIES
    distinct maps are kept, from the automorphisms first in lexicographic
    order.
    """
    # the masks no coupling crosses: the canonical rows with sign +1 on every
    # coupling, that is the unions of components without vertex 0's, since a
    # union with it is the complement of one without it
    switches = np.array([t for t, col in _cut_columns(n).items()
                         if all(s > 0 or not v for s, v in zip(col, b))])
    b_int = np.array(integer_units(b)[0])
    perms, pair_maps = relabelings(n)
    perms = perms[(b_int[pair_maps] == b_int).all(axis=1)][:MAX_SYMMETRIES // len(switches) + 1]
    masks = np.arange(0, 1 << n, 2)
    image = np.zeros((len(perms), len(masks)), dtype=np.int64)
    for i in range(n):
        image |= (masks >> i & 1) << perms[:, i:i + 1]
    image = (image[:, None, :] ^ switches[None, :, None]).reshape(-1, len(masks))
    image = np.where(image & 1, image ^ ((1 << n) - 1), image) >> 1
    image = image[(image != np.arange(len(masks))).any(axis=1)]
    first: dict[bytes, int] = {}
    for k, row in enumerate(image):
        first.setdefault(row.tobytes(), k)
    return image[list(first.values())[:MAX_SYMMETRIES]]


def _char_poly(a: list[list[int]]) -> tuple[list[int], list[list[list[int]]]]:
    """Coefficients of det(xI - a), highest degree first, for a symmetric
    integer matrix a, and the matrices M_1 .. M_n of the Faddeev-LeVerrier
    recurrence M_1 = I, c_k = -tr(a M_k) / k, M_(k+1) = a M_k + c_k I, whose
    divisions are exact because the coefficients are integers.  The
    adjugate is adj(xI - a) = sum over k of x^(n-k) M_k."""
    n = len(a)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    matrices = []
    for k in range(1, n + 1):
        matrices.append(m)
        # every M_k is a polynomial in a, hence symmetric: (a M)_ij = a_i . M_j
        am = [[sum(x * y for x, y in zip(ra, rm)) for rm in m] for ra in a]
        coeffs.append(-sum(am[i][i] for i in range(n)) // k)
        m = [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
    return coeffs, matrices


def _horner(coeffs, x):
    """The polynomial coeffs (highest degree first) at x."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _column_space(a: list[list[int]], vectors) -> tuple[int, list[bool]]:
    """The rank of the integer matrix a and, for each integer vector of
    vectors, whether it lies in the column space of a.

    The columns of a are added one by one with ``_packed_step``, as the
    support search adds its columns, and every vector is reduced in the
    same calls; a vector lies in the span exactly when it reduces to zero.
    """
    columns = list(zip(*a))
    k = _field_width(columns, vectors)
    columns = [_pack(column, k) for column in columns]
    packed = [_pack(vector, k) for vector in vectors]
    rank, prev = 0, 1
    while columns:
        v, *columns = columns
        if v:
            _, prev, reduced = _packed_step(columns + packed, v, k, prev)
            columns, packed = reduced[:len(columns)], reduced[len(columns):]
            rank += 1
    return rank, [not v for v in packed]


def _lower_bound(n: int, b, cols, deadline):
    """A lower bound on L0 for the target couplings b (see the module
    docstring), decided in integers.

    Returns (bound, nodes, timed_out, spectrum), nodes counting the
    restricted searches.  spectrum, which ``_decide_n_rows`` reads, is
    ``_char_poly(-A)``, the +-1 vector of each row of cols and, for each
    integer eigenvalue lambda ascending, (lambda, rank(A - lambda I),
    restricted rows); None on any early return.  A Gershgorin radius above
    MAX_SCAN_RADIUS gives the trivial bound 1.
    """
    if not any(b):
        return 0, 0, False, None
    a = _coupling_matrix(n, b)
    radius = max(sum(map(abs, row)) for row in a)
    if radius > MAX_SCAN_RADIUS:
        return 1, 0, False, None
    # det(tI + A), zero at t = -lambda, and adj(tI + A) = sum over k of t^(n-k) M_k
    det, matrices = _char_poly([[-x for x in row] for row in a])
    # the +-1 vector of each row, -1 at each flipped qubit
    signs = [[-1 if t >> i & 1 else 1 for i in range(n)] for t in cols]
    roots = []
    for lam in range(-radius, radius + 1):
        if time.monotonic() > deadline:
            return 1, 0, True, None
        if _horner(det, -lam) == 0:
            shifted = [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
            rank, inside = _column_space(shifted, signs)
            # rows whose +-1 vector lies in the column space of A - lambda I,
            # that is (A being symmetric) orthogonal to its nullspace
            roots.append((lam, rank, {t: v for (t, v), ok in zip(cols.items(), inside) if ok}))
    bound, nodes = n, 0
    # by rank, smallest first; sorted() keeps equal ranks in eigenvalue order
    for _, rank, restricted in sorted(roots, key=lambda root: root[1]):
        if rank >= bound:
            break
        bound = rank + 1
        if restricted:
            # Any set ends this search, and a failed one must try them all,
            # so the narrow passes would only repeat the full one.
            found, more, timed_out = _search_supports(restricted, b, rank + 1, rank, deadline,
                                                      (None,))
            nodes += more
            if timed_out:  # proven: c_lambda >= rank, and every later rank >= rank
                return rank, nodes, True, None
            if found:
                bound = rank
    return bound, nodes, False, (det, matrices, signs, roots)


def _coupling_matrix(n: int, b) -> list[list[int]]:
    """The symmetric coupling matrix A of b in its ``integer_units``, with a
    zero diagonal."""
    a = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pair_order(n), integer_units(b)[0]):
        a[i][j] = a[j][i] = v
    return a


@functools.lru_cache(maxsize=1 << 12)
def _divisors(m: int) -> tuple[int, ...]:
    """The positive divisors of the positive integer m, by trial division."""
    small = [d for d in range(1, math.isqrt(m) + 1) if not m % d]
    return (*small, *(m // d for d in reversed(small) if d * d != m))


def _rational_roots(coeffs) -> set[Fraction]:
    """The rational roots of the nonzero integer polynomial coeffs (highest
    degree first).  Trial division finds the divisors of its leading and
    lowest nonzero coefficients, so the caller keeps those small.

    A root p/q in lowest terms has p dividing the lowest nonzero
    coefficient and q the leading one (the rational root theorem).  Since
    f = (q x - p) g with g integer (Gauss's lemma), q - p divides f(1) and
    q + p divides f(-1).  A candidate that passes both tests is evaluated
    exactly, as f(p/q) q^d; one not in lowest terms may fail them, but then
    its lowest terms are a candidate too.
    """
    coeffs = list(itertools.dropwhile(lambda c: not c, coeffs))
    roots = set()
    while not coeffs[-1]:
        coeffs.pop()
        roots.add(Fraction(0))
    lead, last = abs(coeffs[0]), abs(coeffs[-1])
    at_one, at_minus_one = sum(coeffs), _horner(coeffs, -1)
    for q in _divisors(lead):
        for d in _divisors(last):
            for p in (d, -d):
                if ((at_one % (q - p) if q != p else at_one)
                        or (at_minus_one % (q + p) if q != -p else at_minus_one)):
                    continue
                acc, power = 0, 1
                for c in coeffs:
                    acc, power = acc * p + c * power, power * q
                if not acc:
                    roots.add(Fraction(p, q))
    return roots


def _decide_n_rows(n: int, b, cols, spectrum, deadline):
    """Whether some n of the columns cols realize b, given that fewer do
    not (see the module docstring): the clique half, then the singular
    half.  spectrum is what ``_lower_bound`` returned with a bound of n,
    so every integer eigenvalue has rank n - 1.

    Returns (answer, witness, nodes): answer True with witness the (row
    mask, strength) entries of such a set, False when none exists, or None
    when the decision is skipped, with a term of adj(A + tI) whose absolute
    entries sum above MAX_ROOT_COEFF.  nodes counts one per row tried on
    top of a partial clique, and the restricted searches' nodes.  Raises
    _Timeout past deadline.
    """
    det, matrices, signs, roots = spectrum
    if max(sum(map(abs, itertools.chain(*m))) for m in matrices) > MAX_ROOT_COEFF:
        return None, None, 0
    masks = list(cols)
    s = np.array(signs, dtype=np.int64)
    # the coefficients of s_r^T adj(A + tI) s_c, highest degree first; each
    # is at most the sum of |M_k|, so int64 holds them
    polys = (s @ np.array(matrices, dtype=np.int64) @ s.T).transpose(1, 2, 0).tolist()
    by_poly = {}
    for r, c in itertools.combinations(range(len(masks)), 2):
        by_poly.setdefault(tuple(polys[r][c]), []).append((r, c))
    always = by_poly.pop((0,) * n, [])  # the pairs orthogonal at every t
    pairs_at = {}  # t to the other pairs orthogonal there
    for poly, pairs in by_poly.items():
        if time.monotonic() > deadline:
            raise _Timeout
        for t in _rational_roots(poly):
            pairs_at.setdefault(t, []).extend(pairs)
    nodes = 0

    def grow(chosen, cand, adj):
        """Extend the clique chosen by rows of cand, which are adjacent to
        all of it, to n rows, trying them in increasing order."""
        nonlocal nodes
        while len(chosen) < n <= len(chosen) + cand.bit_count():
            low = cand & -cand
            cand ^= low
            nodes += 1
            if time.monotonic() > deadline:
                raise _Timeout
            chosen.append(low.bit_length() - 1)
            if grow(chosen, cand & adj[chosen[-1]], adj):
                return True
            chosen.pop()
        return len(chosen) == n

    # the t = -lambda at which A + tI is singular are left to the singular half
    for t in sorted(pairs_at.keys() - {-lam for lam, _, _ in roots}):
        pairs = pairs_at[t] + always
        if len(pairs) < n * (n - 1) // 2:
            continue
        adj = [0] * len(masks)
        for r, c in pairs:
            adj[r] |= 1 << c
            adj[c] |= 1 << r
        chosen = []
        if grow(chosen, sum(1 << r for r in range(len(masks)) if _horner(polys[r][r], t)), adj):
            # W_r = det(A + tI) / s_r^T adj(A + tI) s_r, in the units of b
            d = _horner(det, t) / integer_units(b)[1]
            return True, [(masks[r], d / _horner(polys[r][r], t)) for r in chosen], nodes
    for _, _, restricted in reversed(roots):  # t = -lambda ascending
        if restricted:
            found, more, timed_out = _search_supports(restricted, b, n + 1, n, deadline, (None,))
            nodes += more
            if timed_out:
                raise _Timeout
            if found:
                return True, found, nodes
    return False, None, nodes


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
    the edge-by-edge construction.  It is skipped when the construction
    already meets the lower bound; otherwise one call runs the probe passes
    and the full pass, and stops as soon as its incumbent meets the bound,
    or when every pass has finished.  When the bound is n, the search asks
    ``_decide_n_rows`` once, when its incumbent has n + 1 rows, whether n
    rows realize g, and stops when none do; the decision reads the
    polynomial, eigenvalues and restricted rows that the bound computed.
    ``nodes_explored`` counts the columns tried on top of a support, in all
    passes of the search and in the restricted searches of the bound and of
    the decision, and the rows the decision tries on top of a partial
    clique; columns the full pass skips by symmetry are not tried, so it
    counts the pruned search.
    A join node (the last two levels, see the module docstring) reduces
    all its candidates in one step and counts each of them once, whether
    or not it finds a set; one that times out counts none.
    The bound may use the first half of time_limit; if it runs out there,
    the bound proven so far stands and the search still runs.  When
    time_limit runs out during the search, the best incumbent found so far
    is returned with status INCUMBENT_TIMEOUT; the greedy order makes it
    far smaller than the construction even where the search cannot finish
    (weighted n=7, and n=8 after a bound that timed out).  The status is
    OPTIMAL exactly when the search was skipped or finished.
    """
    _check_size(g)
    check_time_limit(time_limit)
    start = time.monotonic()
    b = couplings(g)
    cols = _cut_columns(g.n)
    incumbent = _default_incumbent(g)
    entries = list(zip(incumbent.rows, incumbent.strengths))
    # a bound that timed out is still proven; only the search's timeout counts
    bound, nodes, _, spectrum = _lower_bound(g.n, b, cols, start + time_limit / 2)
    timed_out = False
    if len(entries) > bound:
        found, more, timed_out = _search_supports(
            cols, b, len(entries), bound, start + time_limit, (*_PROBE_WIDTHS, None),
            functools.partial(_symmetries, g.n, b),
            functools.partial(_decide_n_rows, g.n, b, cols, spectrum) if bound == g.n else None)
        nodes += more
        entries = found or entries
    return OptResult(
        sequence=PulseSequence.from_pairs(g.n, entries),
        objective=Fraction(len(entries)),
        objective_kind="l0",
        status=INCUMBENT_TIMEOUT if timed_out else OPTIMAL,
        nodes_explored=nodes,
        wall_time=time.monotonic() - start,
    )


def solve_l1(g: Graph) -> OptResult:
    """Minimize the total absolute strength realizing g (a pure LP).

    The objective bounds each strength directly, and the program is solved
    to exact rational optimality.  There is no time limit: time limits
    apply to the L0 search only.  When the float basis certifies from its
    float solves, as it does on every graph of the benchmark, a solve takes
    a median 0.65, 1.6 and 5.0 ms at n=6, 7 and 8, and at most 10 ms at n=8
    (the benchmark's 72 L1 graphs, best of 5, median of 5 runs, Python 3.11
    on a 2-core x86-64 VM; 0.7, 1.9 and 6.5 ms, and at most 13 ms, when the
    float tableau stored both columns of each pair, in the same session).
    A float basis that does not certify so is settled exactly by
    ``simplex.exact_resume``: an optimal one in three integer solves, and a
    non-optimal one by pivoting on from it, in up to about a second at n=8,
    where a solve from scratch takes 1.5 to 4 s (ER(8, 0.5), seeds 0-2).
    """
    _check_size(g)
    start = time.monotonic()
    n = g.n
    a_rows, costs, floats = _l1_program(n)
    # n = 1 has no qubit pair: no row, and the empty sequence is optimal
    x = solve_lp(a_rows, couplings(g), costs, floats).x if a_rows else []
    # W_t = W+_t - W-_t, from columns 2t and 2t + 1, which are negations
    # of each other: a basic solution is nonzero on at most one of them
    masks = list(_cut_columns(n))
    seq = PulseSequence.from_pairs(
        n, [(masks[j >> 1], -v if j & 1 else v) for j, v in enumerate(x) if v])
    return OptResult(
        sequence=seq,
        objective=seq.l1,
        objective_kind="l1",
        status=OPTIMAL,
        nodes_explored=0,
        wall_time=time.monotonic() - start,
    )

