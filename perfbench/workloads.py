"""The benchmark's workloads: the items each builds from a seed, and the check
of each item's output.

An item is one CLI invocation.  Every check stands apart from the code under
test: emitted sequences are re-evaluated by `realizes` below, L0 optima come
from a frozen table (cross-checked against scipy's MILP by the tests), L1
optima from scipy's HiGHS LP, and QAOA ratios from values frozen from the
parent code.  A check returns None when the item is right, else the reason.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FROZEN_PATH = Path(__file__).with_name("frozen.json")

# worstcase_l0: every isomorphism class of graphs on 3, 4 and 5 vertices.
L0_SIZES = (3, 4, 5)
L0_WARMUP = (4, ((0, 1, 1), (0, 3, 1), (1, 2, 1)))  # the path P4, worst L0 at n=4

# l1_random: ER graphs, GRAPHS_PER_CELL per (n, weights, p).  The graphs
# come from L1_GRAPH_SEED, so every run times the same graphs; a run's seed
# only shuffles their order.  Graphs drawn from the run's seed would change
# the mix of easy and hard graphs, and so the work timed, from run to run.
L1_GRAPH_SEED = 20110816
L1_SIZES = (6, 7, 8)  # n=6 runs the exact LP engine, n>=7 float then certify
L1_WEIGHTS = ((), (1, 2, 3))
L1_P = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
GRAPHS_PER_CELL = 2
L1_WARMUP = (6, 0.5, (1, 2, 3), 0)  # n, p, weights, graph seed

# noise_qaoa: the four noise-sweep graphs, both compilations, NOISE_PER_RUN
# rates drawn from NOISE_LAMBDAS, at the smallest grid optimize_angles allows.
NOISE_GRAPHS = {
    "star_k15": (6, tuple((0, i) for i in range(1, 6))),
    "cycle_c6": (6, tuple((i, (i + 1) % 6) for i in range(6))),
    "k6": (6, tuple(itertools.combinations(range(6), 2))),
    "two_hubs": (6, ((0, 2), (2, 3), (2, 4), (2, 5), (1, 3), (1, 4), (1, 5))),
}
COMPILATIONS = ("cx", "ms")
NOISE_LAMBDAS = tuple(round(0.001 * k, 3) for k in range(1, 11))
NOISE_PER_RUN = 5
NOISE_GRID = 8
NOISE_WARMUP = ("k6", "cx", 0.005)  # cx on K6 touches every qubit pair
RATIO_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    name: str
    argv: tuple[str, ...]
    n: int
    edges: tuple[tuple[int, int, Fraction], ...]  # u < v, sorted
    out: Path | None  # the --out file of a solver item
    key: str  # entry of the frozen table, if the check uses one


@dataclass
class Run:
    """What one invocation of the CLI returned."""

    code: int | None
    stdout: str
    stderr: str
    seconds: float
    out_text: str | None


@functools.cache
def frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())


def normalized_edges(pairs_or_triples) -> tuple:
    """(u, v, weight) triples with u < v, sorted; a pair gets weight 1."""
    edges = []
    for e in pairs_or_triples:
        u, v = sorted(e[:2])
        edges.append((u, v, Fraction(e[2]) if len(e) == 3 else Fraction(1)))
    return tuple(sorted(edges))


def edge_key(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v, _ in edges)


def _write_graph(path: Path, n, edges) -> None:
    path.write_text(f"n {n}\n" + "".join(f"{u} {v} {z}\n" for u, v, z in edges))


def _solver_item(workdir: Path, name, n, edges, extra=(), key="") -> Item:
    graph, out = workdir / f"{name}.txt", workdir / f"{name}.out.json"
    _write_graph(graph, n, edges)
    return Item(name, ("optimize", str(graph), *extra, "--out", str(out)), n, edges, out, key)


def realizes(n, ops, edges) -> bool:
    """Whether pulse-JSON ops realize exactly the couplings of `edges`:
    sum over rows p of w_p * s_p[i] * s_p[j] for every pair i < j."""
    coupling = {(i, j): Fraction(0) for i, j in itertools.combinations(range(n), 2)}
    for op in ops:
        mask = op["mask"]
        if len(mask) != n or set(mask) - {"+", "-"}:
            return False
        w = Fraction(op["w"])
        for i, j in coupling:
            coupling[(i, j)] += w if mask[i] == mask[j] else -w
    return coupling == {**dict.fromkeys(coupling, Fraction(0)),
                        **{(u, v): z for u, v, z in edges}}


def solver_output(run: Run) -> dict:
    """The JSON document an optimize item wrote, or ValueError."""
    if run.out_text is None:
        raise ValueError("no output file")
    return json.loads(run.out_text)


# ------------------------------------------------------------ worstcase_l0 --


def build_worstcase(pkg, seed, workdir):
    items = []
    for n in L0_SIZES:
        for g in pkg.graphs.enumerate_labeled_graphs(n, distinct_only=True):
            edges = normalized_edges(g.edges)
            key = f"{n}:{edge_key(edges)}"
            items.append(_solver_item(workdir, f"l0_{len(items)}", n, edges, key=key))
    n, pairs = L0_WARMUP
    edges = normalized_edges(pairs)
    warmup = _solver_item(workdir, "warmup", n, edges, key=f"{n}:{edge_key(edges)}")
    return items, warmup


def check_worstcase(item, run):
    doc = solver_output(run)
    n, classes = item.key.split(":")
    want = frozen()["l0"][n][classes]
    if doc["status"] != "optimal" or Fraction(doc["objective"]) != want:
        return f"status {doc['status']}, L0 {doc['objective']}, expected optimal {want}"
    ops = doc["sequence"]["ops"]
    if len(ops) != want:
        return f"sequence has {len(ops)} rows, expected {want}"
    if not realizes(item.n, ops, item.edges):
        return "sequence does not realize the graph"
    return None


# --------------------------------------------------------------- l1_random --


def build_l1(pkg, seed, workdir):
    rng = random.Random(L1_GRAPH_SEED)
    items = []
    for n in L1_SIZES:
        for weights in L1_WEIGHTS:
            for p in L1_P:
                for _ in range(GRAPHS_PER_CELL):
                    g = pkg.graphs.random_er_graph(n, p, weights, rng.getrandbits(64))
                    items.append(_solver_item(workdir, f"l1_{len(items)}", n,
                                              normalized_edges(g.edges), ("--objective", "l1")))
    n, p, weights, graph_seed = L1_WARMUP
    g = pkg.graphs.random_er_graph(n, p, weights, graph_seed)
    warmup = _solver_item(workdir, "warmup", n, normalized_edges(g.edges), ("--objective", "l1"))
    return items, warmup


def canonical_signs(n):
    """The pairs i < j of n qubits, and the matrix of s_r[i] * s_r[j] with
    one row per pair and one column per canonical row r.  Row r flips qubit
    i+1 when bit i of r is set; qubit 0 is never flipped."""
    import numpy as np

    pairs = list(itertools.combinations(range(n), 2))
    q = np.array([[-1.0 if ((r << 1) >> i ^ (r << 1) >> j) & 1 else 1.0
                   for r in range(1 << (n - 1))] for i, j in pairs])
    return pairs, q


@functools.cache
def highs_l1(n, edges) -> float:
    """Minimum total |strength| over all canonical rows, by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    pairs, q = canonical_signs(n)
    target = dict(((u, v), float(z)) for u, v, z in edges)
    res = linprog(np.ones(2 * q.shape[1]), A_eq=np.hstack([q, -q]),
                  b_eq=[target.get(p, 0.0) for p in pairs], bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def check_l1(item, run):
    doc = solver_output(run)
    if doc["status"] != "optimal" or doc["objective_kind"] != "l1":
        return f"status {doc['status']}, objective kind {doc['objective_kind']}"
    ops = doc["sequence"]["ops"]
    objective = Fraction(doc["objective"])
    if objective != sum((abs(Fraction(op["w"])) for op in ops), Fraction(0)):
        return f"objective {objective} is not the sequence's L1"
    if not realizes(item.n, ops, item.edges):
        return "sequence does not realize the graph"
    reference = highs_l1(item.n, item.edges)
    if abs(float(objective) - reference) > 1e-7 * max(1.0, reference):
        return f"L1 {objective} but HiGHS finds {reference!r}"
    return None


# -------------------------------------------------------------- noise_qaoa --


def _noise_item(workdir, graph, compilation, lam) -> Item:
    n, pairs = NOISE_GRAPHS[graph]
    path = workdir / f"{graph}.txt"
    edges = normalized_edges(pairs)
    argv = ("simulate", str(path), "--compilation", compilation, "--lambda", repr(lam),
            "--optimize", "--grid-res", str(NOISE_GRID))
    return Item(f"{graph}_{compilation}_{lam!r}", argv, n, edges, None,
                f"{graph} {compilation} {lam!r}")


def build_noise(pkg, seed, workdir):
    for graph, (n, pairs) in NOISE_GRAPHS.items():
        _write_graph(workdir / f"{graph}.txt", n, normalized_edges(pairs))
    lams = sorted(random.Random(seed).sample(NOISE_LAMBDAS, NOISE_PER_RUN))
    items = [_noise_item(workdir, graph, compilation, lam)
             for graph in NOISE_GRAPHS for compilation in COMPILATIONS for lam in lams]
    return items, _noise_item(workdir, *NOISE_WARMUP)


def check_noise(item, run):
    fields = dict(tok.split("=", 1) for tok in run.stdout.split() if "=" in tok)
    if "ratio" not in fields:
        return "no ratio printed"
    want = float(frozen()["ratio"][item.key])
    if abs(float(fields["ratio"]) - want) > RATIO_TOL:
        return f"ratio {fields['ratio']}, expected {want!r}"
    return None


@dataclass(frozen=True)
class Workload:
    build: object  # (pkg, seed, workdir) -> (items, warm-up item)
    check: object  # (item, run) -> None or the reason the item failed
    solver: bool  # items emit a pulse sequence
    # Seconds one pass over the items takes on a 2-core x86-64 virtual
    # machine; a run of S seconds makes round(S / pass_seconds) passes, at
    # least one, so the work in a run is fixed by S and not by how fast the
    # machine is.
    pass_seconds: float


WORKLOADS = {
    "worstcase_l0": Workload(build_worstcase, check_worstcase, True, 25.0),
    "l1_random": Workload(build_l1, check_l1, True, 7.0),
    "noise_qaoa": Workload(build_noise, check_noise, False, 15.5),
}


def check(workload: Workload, item: Item, run: Run):
    """None when the item exited 0 with a right output, else the reason."""
    if run.code != 0:
        return f"exit code {run.code}: {run.stderr.strip()[-300:]}"
    try:
        return workload.check(item, run)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
