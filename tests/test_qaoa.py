"""The noisy QAOA simulator against an independent dense oracle.

The oracle builds every operator with np.kron and applies each channel as
written in the model: depolarizing as the average over the Pauli strings on
its qubits, phase and bit flips as Kraus pairs, unitaries as full matrices.
It shares no code with isingcoupler.qaoa."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from isingcoupler import (
    Graph, NoiseSpec, PulseSequence, apply_depolarizing, evaluate, maxcut_brute_force,
    optimize_angles, random_er_graph, simulate_qaoa_p1, union_of_stars, verify,
    weighted_edge_by_edge,
)
from isingcoupler import qaoa
from isingcoupler.exactopt import solve_l0

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0 + 0j, -1.0])
PAULIS = (I2, X, Y, Z)


def on(n, ops):
    """The n-qubit operator acting as ops[q] on qubit q (qubit 0 is bit 0)."""
    full = np.eye(1, dtype=complex)
    for q in range(n):
        full = np.kron(ops.get(q, I2), full)
    return full


@functools.lru_cache(maxsize=None)
def pauli_strings(n, qubits):
    return [on(n, dict(zip(qubits, ps))) for ps in itertools.product(PAULIS, repeat=len(qubits))]


def depolarize(rho, qubits, lam, n):
    strings = pauli_strings(n, tuple(qubits))
    mixture = sum(p @ rho @ p.conj().T for p in strings) / len(strings)
    return (1 - lam) * rho + lam * mixture


def kraus_pair(rho, op, p):
    return (1 - p) * rho + p * (op @ rho @ op.conj().T)


def minor(rho, q, rate, n):
    rho = depolarize(rho, [q], rate, n)
    return kraus_pair(rho, on(n, {q: Z}), rate)


def conjugate(rho, u):
    return u @ rho @ u.conj().T


def ising(n, phi):
    """exp(-i phi sum_{i<j} Z_i Z_j) as a product of commuting factors."""
    u = np.eye(1 << n, dtype=complex)
    for i, j in itertools.combinations(range(n), 2):
        zz = on(n, {i: Z, j: Z})
        u = u @ (math.cos(phi) * np.eye(1 << n) - 1j * math.sin(phi) * zz)
    return u


def oracle_cost_layer(g, compilation, seq, gamma, noise):
    """The density matrix after the noisy cost layer, from |+...+>."""
    n, dim = g.n, 1 << g.n
    major, rate = noise.major_rate, noise.minor_rate
    plus = np.full((dim, 1), 1 / math.sqrt(dim), dtype=complex)
    rho = plus @ plus.conj().T
    if compilation == "cx":
        for u, v, z in g.edges:
            cnot = on(n, {u: np.diag([1.0, 0.0])}) + on(n, {u: np.diag([0.0, 1.0]), v: X})
            half = gamma * float(z) / 2  # Rz(-gamma z) = diag(e^{i gamma z/2}, e^{-i gamma z/2})
            rz = on(n, {v: np.diag([np.exp(1j * half), np.exp(-1j * half)])})
            rho = depolarize(conjugate(rho, cnot), [u, v], major, n)
            rho = minor(conjugate(rho, rz), v, rate, n)
            rho = depolarize(conjugate(rho, cnot), [u, v], major, n)
    else:
        for mask, w in zip(seq.rows, seq.strengths):
            flipped = [q for q in range(n) if mask >> q & 1]
            for q in flipped:
                rho = minor(conjugate(rho, on(n, {q: X})), q, rate, n)
            rho = conjugate(rho, ising(n, -gamma * float(w) / 2))
            rho = depolarize(rho, range(n), major, n)
            for q in flipped:
                rho = minor(conjugate(rho, on(n, {q: X})), q, rate, n)
    return rho


def mixer(n, beta):
    """prod_q exp(-i beta X_q)."""
    return functools.reduce(
        np.matmul, [math.cos(beta) * np.eye(1 << n) - 1j * math.sin(beta) * on(n, {q: X})
                    for q in range(n)])


def oracle(g, compilation, seq, gamma, beta, noise):
    n, dim = g.n, 1 << g.n
    rate = noise.minor_rate
    rho = conjugate(oracle_cost_layer(g, compilation, seq, gamma, noise), mixer(n, beta))
    for q in range(n):
        rho = minor(rho, q, rate, n)
    for q in range(n):
        rho = kraus_pair(rho, on(n, {q: X}), rate)
    cost = sum((float(z) * (np.eye(dim) - on(n, {u: Z, v: Z})) / 2 for u, v, z in g.edges),
               np.zeros((dim, dim)))
    return float(np.trace(cost @ rho).real)


def ising_energies(n):
    """sum_{i<j} z_i z_j for each basis state x, z_i = +-1 from bit i of x,
    as Python integers."""
    return [sum((1 - 2 * (x >> i & 1)) * (1 - 2 * (x >> j & 1))
                for i, j in itertools.combinations(range(n), 2))
            for x in range(1 << n)]


def build_cost_operator(g):
    """Diagonal of C': the cut value of every computational basis state."""
    idx = np.arange(1 << g.n)
    diag = np.zeros(1 << g.n)
    for u, v, z in g.edges:
        diag += (((idx >> u) ^ (idx >> v)) & 1) * float(z)
    return diag


def simulate_qaoa_p1_statevector(g, compilation, seq, gamma, beta):
    """Noise-free cross-check using a pure state instead of a density matrix."""
    n = g.n
    psi = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    if compilation == "cx":
        idx = np.arange(1 << n)
        for u, v, z in g.edges:
            perm = idx ^ (((idx >> u) & 1) << v)  # CNOT with control u, target v
            psi = psi[perm]
            signs = 1.0 - 2.0 * ((np.arange(1 << n) >> v) & 1)
            psi = psi * np.exp(-1j * (-gamma * float(z) / 2.0) * signs)
            psi = psi[perm]
    elif compilation == "ms":
        if seq is None or not verify(seq, g):
            raise ValueError("ms compilation needs a sequence realizing the graph")
        energies = np.array(ising_energies(n), dtype=float)
        for mask, w in zip(seq.rows, seq.strengths):
            flips = np.arange(1 << n) ^ mask
            psi = psi[flips]
            psi = psi * np.exp(-1j * (-gamma * float(w) / 2.0) * energies)
            psi = psi[flips]
    else:
        raise ValueError(f"unknown compilation {compilation!r}")
    psi = mixer(n, beta) @ psi
    return float(np.sum(build_cost_operator(g) * np.abs(psi) ** 2))


def walsh_matrix(bits):
    """The Walsh-Hadamard matrix (-1)^(f.x) over bits-bit indices f, x."""
    idx = np.arange(1 << bits)
    ones = np.array([bin(f & x).count("1") for f in idx for x in idx]).reshape(len(idx), -1)
    return 1 - 2 * (ones & 1)


def cost_layer(g, kind, seq, gammas, noise):
    """The (G, 2^n, 2^n) stack of the layer over every column: entry (x, y)
    is sigma[x ^ y] half[x, x ^ y], read from the complement of x when its
    top bit is set, where the stored half stack is the inverse Walsh
    transform of the layer's coefficients."""
    idx = np.arange(1 << g.n)
    walsh, sigma = (qaoa._cx_layer(g, gammas, noise, idx) if kind == "cx"
                    else qaoa._ms_layer(seq, gammas, noise, idx))
    half = np.einsum("xf,gfk->gxk", walsh_matrix(g.n - 1), walsh) / (len(idx) // 2)
    stored = np.where(idx < len(idx) // 2, idx, idx ^ (len(idx) - 1))
    k = idx[:, None] ^ idx[None, :]
    return half[:, stored[:, None], k] * sigma[k]


def realized_graph(seq):
    """The graph whose couplings the sequence evaluates to."""
    pairs = itertools.combinations(range(seq.n), 2)
    return Graph.from_edges(seq.n, [(i, j, c) for (i, j), c in zip(pairs, evaluate(seq)) if c])


def is_physical_density(rho, herm_tol=1e-12, trace_tol=1e-12, eig_tol=1e-10):
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        return False
    if abs(rho.trace() - 1.0) > trace_tol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() > -eig_tol)


CASES = [
    ("edgeless", Graph(3, ()), union_of_stars),
    ("edge", Graph.unweighted(2, [(0, 1)]), union_of_stars),
    ("triangle", Graph.complete(3), union_of_stars),
    ("k4", Graph.complete(4), union_of_stars),
    ("star4", Graph.unweighted(4, [(0, 1), (0, 2), (0, 3)]), union_of_stars),
    ("er4", random_er_graph(4, 0.6, (), 3), union_of_stars),
    ("er4_weighted", random_er_graph(4, 0.7, (1, 2, 3), 2), weighted_edge_by_edge),
    ("er3_weighted", random_er_graph(3, 1.0, ("1/2", -1, 2), 5), weighted_edge_by_edge),
]


@pytest.mark.parametrize("compilation", ["cx", "ms"])
@pytest.mark.parametrize("name, g, construct", CASES, ids=[c[0] for c in CASES])
def test_grid_matches_the_dense_oracle(name, g, construct, compilation):
    rng = np.random.default_rng(list((name + compilation).encode()))
    noise = NoiseSpec(rng.uniform(0, 0.2), rng.uniform(0, 1))
    seq = construct(g) if compilation == "ms" else None
    gammas = rng.uniform(0, 2 * math.pi, 3)
    betas = rng.uniform(0, math.pi, 2)
    grid = simulate_qaoa_p1(g, compilation, seq, gammas, betas, noise)
    assert grid.shape == (3, 2)
    want = [[oracle(g, compilation, seq, gm, b, noise) for b in betas] for gm in gammas]
    np.testing.assert_allclose(grid, want, rtol=0, atol=1e-12)
    for gm in gammas:
        assert is_physical_density(cost_layer(g, compilation, seq, np.array([gm]), noise)[0])


@pytest.mark.parametrize("n", range(1, 8))
def test_cx_grid_matches_the_dense_oracle_with_fractional_and_negative_weights(n):
    """The cx layer's Walsh-basis noise factors and phase pairing against the
    oracle, which applies every CNOT, rotation and channel as written, at
    minor and major rates up to 0.3."""
    rng = np.random.default_rng([n, 3])
    pairs = [p for p in itertools.combinations(range(n), 2) if rng.uniform() < 0.45]
    g = Graph.from_edges(n, [(u, v, (1, "3/2", -2)[i % 3]) for i, (u, v) in enumerate(pairs)])
    if n >= 4:
        assert {float(z) for _, _, z in g.edges} == {1.0, 1.5, -2.0}
    noise = NoiseSpec(rng.uniform(0.1, 0.3), rng.uniform(0.5, 1))
    gammas, betas = rng.uniform(0, 2 * math.pi, 2), rng.uniform(0, math.pi, 2)
    grid = simulate_qaoa_p1(g, "cx", None, gammas, betas, noise)
    want = [[oracle(g, "cx", None, gm, b, noise) for b in betas] for gm in gammas]
    np.testing.assert_allclose(grid, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("compilation", ["cx", "ms"])
def test_the_oracle_cost_layer_commutes_with_flipping_every_qubit(compilation):
    """X^n rho X^n = rho after the noisy cost layer: the identity that lets
    the simulator store only the rows with the top bit clear."""
    g = random_er_graph(4, 0.7, ("1/2", -1, 3), 7)
    seq = weighted_edge_by_edge(g) if compilation == "ms" else None
    noise = NoiseSpec(0.08, 0.6)
    flip_all = on(g.n, {q: X for q in range(g.n)})
    for gamma in (0.6, 2.3):
        rho = oracle_cost_layer(g, compilation, seq, gamma, noise)
        # flipping one qubit alone does change the state
        assert np.abs(conjugate(rho, on(g.n, {0: X})) - rho).max() > 1e-3
        np.testing.assert_allclose(conjugate(rho, flip_all), rho, rtol=0, atol=1e-12)


def test_ms_rows_flipping_overlapping_qubits_match_the_dense_oracle():
    """The simulator drops the bit flips of an ms row and evaluates the Ising
    phase at the flipped energies; the oracle applies every flip."""
    g = Graph.unweighted(5, [(i, (i + 1) % 5) for i in range(5)])
    seq = solve_l0(g).sequence
    assert any(a & b for a, b in itertools.combinations(seq.rows, 2))
    noise = NoiseSpec(0.05, 0.5)
    gammas, betas = [0.4, 2.1, 5.3], [0.3, 1.9]
    grid = simulate_qaoa_p1(g, "ms", seq, gammas, betas, noise)
    want = [[oracle(g, "ms", seq, gm, b, noise) for b in betas] for gm in gammas]
    np.testing.assert_allclose(grid, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 10))
def test_ising_codes_are_the_halved_energy_differences(n):
    """Every x, the top bit set included, reads (E(x) - E(x ^ k))/2 shifted
    by n^2 // 4 into the table's unsigned range, at every column and at
    random sorted subsets of the columns."""
    energy = ising_energies(n)
    diffs = [[energy[x] - energy[x ^ k] for k in range(1 << n)] for x in range(1 << n)]
    assert all(d % 2 == 0 for row in diffs for d in row)
    rng = np.random.default_rng(n)
    subsets = [np.arange(1 << n)] + [
        np.flatnonzero(rng.random(1 << n) < p) for p in (0.1, 0.5, 0.9)]
    for columns in subsets:
        codes = qaoa._ising_codes(n, columns)
        assert codes.dtype == np.uint8 and codes.shape == (1 << n, len(columns))
        assert codes.tolist() == [[row[k] // 2 + n * n // 4 for k in columns] for row in diffs]


def test_ms_rows_with_repeated_and_complemented_masks_match_the_dense_oracle():
    """A row repeated back to back puts two flips per qubit in the round
    between them, a row followed by its complement one on every qubit, and
    masks with the top bit set read the phase table directly."""
    n = 4
    seq = PulseSequence.from_pairs(n, [(0b1010, 1), (0b1010, "-1/2"), (0b0101, 2),
                                       (0b1100, "3/4"), (0b1000, -1)])
    g = realized_graph(seq)
    noise = NoiseSpec(0.05, 0.5)
    gammas, betas = [0.4, 2.1, 5.3], [0.3, 1.9]
    grid = simulate_qaoa_p1(g, "ms", seq, gammas, betas, noise)
    want = [[oracle(g, "ms", seq, gm, b, noise) for b in betas] for gm in gammas]
    np.testing.assert_allclose(grid, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("compilation", ["cx", "ms"])
def test_cost_layer_on_a_gamma_array_stacks_its_scalar_calls(compilation):
    g = random_er_graph(4, 0.7, (1, 2, 3), 2)
    seq = weighted_edge_by_edge(g) if compilation == "ms" else None
    noise = NoiseSpec(0.1, 0.4)
    gammas = np.array([0.0, 0.7, 2.5, 4.4])
    stack = cost_layer(g, compilation, seq, gammas, noise)
    assert stack.shape == (4, 16, 16)
    want = np.array([cost_layer(g, compilation, seq, np.array([gm]), noise)[0] for gm in gammas])
    np.testing.assert_allclose(stack, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("weights", [(), (1, 2, 3), ("1/2", -1, "3/4")],
                         ids=["none", "123", "mixed"])
@pytest.mark.parametrize("n", range(1, 8))
def test_the_layers_on_the_readout_columns_are_the_full_layers_at_those_columns(n, weights):
    """No op of either layer changes k, so each column evolves alone: the
    layers run on the readout's columns give bit for bit the all-column
    layers' entries there, for random graphs and for ms sequences of
    random masks, any of the 2^n (top bit and the empty mask included)."""
    rng = np.random.default_rng([n, len(weights)])
    everything = np.arange(1 << n)
    strengths = weights or (1,)
    for case in range(4):
        noise = NoiseSpec(rng.uniform(0, 0.3), rng.uniform(0, 1))
        gammas = rng.uniform(0, 2 * math.pi, 3)
        seq = PulseSequence.from_pairs(n, [(int(rng.integers(1 << n)),
                                            strengths[rng.integers(len(strengths))])
                                           for _ in range(rng.integers(0, 6))])
        for kind, g in [("cx", random_er_graph(n, rng.uniform(0.2, 0.9), weights, case)),
                        ("ms", realized_graph(seq))]:
            columns = qaoa._readout_columns(g)
            assert 0 not in columns and np.all(np.diff(columns) > 0)
            for u, v, _ in g.edges:
                assert {1 << u, 1 << v, (1 << u) | (1 << v)} <= set(columns.tolist())
            if kind == "cx":
                rho, sigma = qaoa._cx_layer(g, gammas, noise, columns)
                full_rho, full_sigma = qaoa._cx_layer(g, gammas, noise, everything)
            else:
                rho, sigma = qaoa._ms_layer(seq, gammas, noise, columns)
                full_rho, full_sigma = qaoa._ms_layer(seq, gammas, noise, everything)
            assert rho.shape == (3, 1 << (n - 1), len(columns))
            # the diagonal (k = 0) stays uniform, so <Z_u Z_v> = 0 is not read
            uniform = np.broadcast_to(np.eye(1, 1 << (n - 1)) / 2, (3, 1 << (n - 1)))
            np.testing.assert_array_equal(full_rho[:, :, 0], uniform)
            np.testing.assert_array_equal(rho, full_rho[:, :, columns])
            np.testing.assert_array_equal(sigma, full_sigma[columns])


@pytest.mark.parametrize("n", range(2, 8))
def test_the_readout_gathers_the_t_weighted_sums_of_the_stored_rows(n):
    """On random half stacks, each edge's Walsh coefficient is the sum of
    the stored rows weighted by t(x) = (-1)^(x_u ^ x_v), v = n-1 included,
    where the partner of x is the reversed row; so the readout's gather
    gives the correlators summed over the rows."""
    rng = np.random.default_rng(n)
    g = Graph.from_edges(n, [(u, v, rng.choice([1, "3/2", -2]))
                             for u, v in itertools.combinations(range(n), 2)])
    columns = qaoa._readout_columns(g)
    rows = rng.normal(size=(3, 1 << (n - 1), len(columns), 2)) @ [1, 1j]
    sigma = rng.uniform(0.5, 1, len(columns))
    walsh = qaoa._walsh(rows.copy(), n)
    stored = np.arange(1 << (n - 1))
    at = {k: i for i, k in enumerate(columns.tolist())}
    want = np.zeros((3, 2))
    for u, v, z in g.edges:
        t = 1 - 2 * ((stored >> u ^ stored >> v) & 1)
        s = {k: 2 * sigma[at[k]] * np.einsum("x,gx->g", t, rows[:, :, at[k]])
             for k in (1 << u, 1 << v, 1 << u | 1 << v)}
        pair = (1 << u ^ 1 << v) & ((1 << (n - 1)) - 1)
        for k, sum_k in s.items():
            np.testing.assert_allclose(2 * sigma[at[k]] * walsh[:, pair, at[k]], sum_k,
                                       rtol=0, atol=1e-12)
        want += float(z) * np.stack([-(s[1 << u] + s[1 << v]).imag, -s[1 << u | 1 << v].real],
                                    axis=1)
    np.testing.assert_allclose(qaoa._correlators(g, walsh, sigma, columns), want,
                               rtol=0, atol=1e-11)


def plain_max_cut(g):
    return max(sum((z for u, v, z in g.edges if (x >> u ^ x >> v) & 1), Fraction(0))
               for x in range(1 << g.n))


@pytest.mark.parametrize("weights", [(), (1, 2, 3), ("1/2", -1, "3/4"), (10**30, -1, "1/3"),
                                     (10**400, -1, "1/3")],
                         ids=["none", "123", "mixed", "huge", "beyond_float"])
def test_maxcut_brute_force_is_the_plain_scan(weights):
    """The vectorized scan against a plain one, for n = 1..8; a weight of
    10^30 puts the sums past int64, onto Python integers, and one of 10^400
    has no float64 value, so the scan must not round the weights to floats."""
    for n in range(1, 9):
        for seed in range(3):
            g = random_er_graph(n, 0.6, weights, seed)
            assert maxcut_brute_force(g) == plain_max_cut(g)
    big = Graph.from_edges(3, [(0, 1, 10**30), (1, 2, 1), (0, 2, "1/2")])
    assert maxcut_brute_force(big) == plain_max_cut(big) == 10**30 + 1


def fraction_sum_overflows(values):
    """The reference: float() of the Fraction sum of the absolute values
    overflows."""
    try:
        float(sum(map(abs, values), Fraction(0)))
    except OverflowError:
        return True
    return False


def test_the_float_range_check_overflows_like_the_fraction_sum():
    """Absolute sums on both sides of the largest double M and of the
    midpoint between M and 2^1024 (which rounds up, beyond float64), as
    edge weights (cx) and as row strengths (ms), split over weights of
    different denominators and signs."""
    top = int(np.finfo(float).max)
    tie = (1 << 1024) - (1 << 970)
    refused = 0
    for total in [top - 1, top, top + 1, tie - 1, tie, tie + 1, 1 << 1024]:
        for extra in [Fraction(0), Fraction(-1, 7), Fraction(1, 5)]:
            value = total + extra
            for values in [[value], [-value / 2, value / 3, value / 6], [value - 1, Fraction(-1)]]:
                overflows = fraction_sum_overflows(values)
                refused += overflows
                path = Graph(len(values) + 1, tuple((i, i + 1, w) for i, w in enumerate(values)))
                seq = PulseSequence(2, tuple(range(len(values))), tuple(values))
                for g, compilation, sequence in [(path, "cx", None), (Graph(2, ()), "ms", seq)]:
                    if overflows:
                        with pytest.raises(ValueError, match="float64 range"):
                            qaoa._check_float_range(g, compilation, sequence)
                    else:
                        qaoa._check_float_range(g, compilation, sequence)
    assert fraction_sum_overflows([tie]) and not fraction_sum_overflows([tie - Fraction(1, 7)])
    assert 0 < refused < 63


@pytest.mark.parametrize("name, g, construct", CASES, ids=[c[0] for c in CASES])
def test_noiseless_grid_matches_statevector_and_compilations_agree(name, g, construct):
    seq = construct(g)
    gammas = np.linspace(0, 2 * math.pi, 5, endpoint=False)
    betas = np.linspace(0, math.pi, 4, endpoint=False)
    cx = simulate_qaoa_p1(g, "cx", None, gammas, betas)
    ms = simulate_qaoa_p1(g, "ms", seq, gammas, betas)
    want = [[simulate_qaoa_p1_statevector(g, "cx", None, gm, b) for b in betas] for gm in gammas]
    np.testing.assert_allclose(cx, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ms, cx, rtol=0, atol=1e-12)


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = a @ a.conj().T
    return rho / rho.trace()


@pytest.mark.parametrize("qubits", [(1,), (2,), (0, 3), (3, 1), (0, 1, 2, 3), np.array([3, 1])])
def test_apply_depolarizing_is_the_pauli_mixture(qubits):
    """Also for a numpy array of qubits, and for a one-pass iterator."""
    rho = random_density(4, int(sum(qubits)))
    out = apply_depolarizing(rho, qubits, 0.3, 4)
    np.testing.assert_allclose(out, depolarize(rho, tuple(qubits), 0.3, 4), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(apply_depolarizing(rho, iter(tuple(qubits)), 0.3, 4), out)
    assert abs(out.trace() - 1) < 1e-14 and is_physical_density(out)
    full = apply_depolarizing(rho, qubits, 1.0, 4)
    np.testing.assert_allclose(full, depolarize(rho, tuple(qubits), 1.0, 4), rtol=0, atol=1e-14)


@pytest.mark.parametrize("qubits", [(2,), (0, 3), (0, 1, 2, 3)])
def test_apply_depolarizing_leaves_its_input_and_works_on_a_stack(qubits):
    stack = np.array([random_density(4, seed) for seed in range(3)])
    before = stack.copy()
    out = apply_depolarizing(stack, qubits, 0.3, 4)
    np.testing.assert_array_equal(stack, before)
    assert out.shape == stack.shape
    for rho, got in zip(stack, out):
        np.testing.assert_allclose(got, depolarize(rho, qubits, 0.3, 4), rtol=0, atol=1e-14)
    single = stack[0].copy()
    apply_depolarizing(single, qubits, 0.3, 4)
    np.testing.assert_array_equal(single, before[0])


def test_bad_arguments_raise():
    g = Graph.complete(3)
    for gamma, beta in [(math.nan, 0.1), (0.1, math.inf), ([0.1, math.nan], [0.2]),
                        ([0.1, 0.2], [0.3, -math.inf]), ([[0.1]], [0.2])]:
        with pytest.raises(ValueError):
            simulate_qaoa_p1(g, "cx", None, gamma, beta)
    for gamma, beta in [([], [0.1]), ([0.1], [])]:
        with pytest.raises(ValueError, match="empty"):
            simulate_qaoa_p1(g, "cx", None, gamma, beta)
    with pytest.raises(ValueError, match="unknown compilation"):
        simulate_qaoa_p1(g, "cz", None, 0.1, 0.2)
    with pytest.raises(ValueError, match="realizing"):
        simulate_qaoa_p1(g, "ms", None, 0.1, 0.2)
    with pytest.raises(ValueError, match="realizing"):
        simulate_qaoa_p1(g, "ms", union_of_stars(Graph.unweighted(3, [(0, 1)])), [0.1], [0.2])
    for spec in [dict(major_rate=1.5), dict(major_rate=-0.1), dict(major_rate=0.5, minor_ratio=3),
                 dict(major_rate=math.nan)]:
        with pytest.raises(ValueError):
            NoiseSpec(**spec)
    for lam in (-0.1, 1.5):
        with pytest.raises(ValueError, match="rate"):
            apply_depolarizing(random_density(3, 0), (0,), lam, 3)
    with pytest.raises(ValueError, match="out of range"):
        apply_depolarizing(random_density(3, 0), (3,), 0.1, 3)


def test_a_grid_beyond_the_memory_cap_is_refused_before_any_allocation():
    """One gamma and one beta on a 20-vertex path evolve K = 39 columns of
    2^19 stored rows, which the count puts at 2.1 GB."""
    path = Graph.unweighted(20, [(i, i + 1) for i in range(19)])
    assert qaoa._simulation_bytes(20, 39, 1, 1) > qaoa.MAX_SIMULATION_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n=20 with 1 gammas and 1 betas .* 1 GiB"):
            simulate_qaoa_p1(path, "cx", None, 0.1, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def traced_memory(g, compilation, count_g, count_b):
    """The bytes one noisy simulation on a G x B grid leaves allocated after
    it returns, and its tracemalloc peak."""
    seq = union_of_stars(g) if compilation == "ms" else None
    args = (g, compilation, seq, np.linspace(0.1, 6.0, count_g), np.linspace(0.1, 3.0, count_b),
            NoiseSpec(0.02, 0.5))
    tracemalloc.start()
    try:
        simulate_qaoa_p1(*args)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("compilation", ["cx", "ms"])
@pytest.mark.parametrize("count_g, count_b", [(16, 2), (2, 16)])
def test_a_simulation_holds_no_more_than_the_memory_cap_accounts_for(
        compilation, count_g, count_b):
    """The traced peak stays within the bytes ``_simulation_bytes`` counts
    for the readout's K columns, which the call checks against
    MAX_SIMULATION_BYTES."""
    g = random_er_graph(8, 0.5, (), 1)
    width = len(qaoa._readout_columns(g))
    assert width == 21
    assert traced_memory(g, compilation, count_g, count_b)[1] <= qaoa._simulation_bytes(
        g.n, width, count_g, count_b)


@pytest.mark.parametrize("compilation", ["cx", "ms"])
@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("shape", ["edge", "path"])
def test_the_count_bounds_an_edge_and_a_path_beyond_the_papers_sizes(shape, n, compilation):
    """A single edge (K = 3) and a path (K = 2n - 1) at n = 11 and 12, one
    grid point and the 8 x 8 scan: the traced peak stays within the count,
    and every call fits the cap."""
    edges = [(0, 1)] if shape == "edge" else [(i, i + 1) for i in range(n - 1)]
    g = Graph.unweighted(n, edges)
    width = len(qaoa._readout_columns(g))
    assert width == (3 if shape == "edge" else 2 * n - 1)
    for count_g, count_b in [(1, 1), (8, 8)]:
        count = qaoa._simulation_bytes(n, width, count_g, count_b)
        assert count <= qaoa.MAX_SIMULATION_BYTES
        assert traced_memory(g, compilation, count_g, count_b)[1] <= count


def test_the_cx_bit_table_of_16_vertices_peaks_under_5_mib():
    """A one-point cx call on a single-edge 16-vertex graph builds its
    (16, 2^15) Walsh-index bit table through a uint32 temporary (2 MiB): the
    call peaks at about 4.3 MiB, where an int64 temporary took 6.3 MiB."""
    g = Graph.unweighted(16, [(0, 1)])
    assert traced_memory(g, "cx", 1, 1)[1] < 5 << 20


@pytest.mark.parametrize("compilation, n", [("cx", 15), ("ms", 14)])
def test_a_simulation_leaves_nothing_allocated_after_it_returns(compilation, n):
    """A one-point call keeps no table between calls: it leaves less
    allocated than a uint8 bit table of its stored rows would take
    (n 2^(n-1) bytes).  Each n is one that no other call in the tests
    simulates, so no earlier call could have built a table this one would
    reuse."""
    g = Graph.unweighted(n, [(0, 1)])
    assert traced_memory(g, compilation, 1, 1)[0] < 64 << 10


def test_scalar_angles_give_the_one_point_grid_value():
    g = Graph.complete(4)
    noise = NoiseSpec(0.02)
    value = simulate_qaoa_p1(g, "cx", None, 0.3, 0.7, noise)
    assert type(value) is float
    assert value == simulate_qaoa_p1(g, "cx", None, [0.3], [0.7], noise)[0, 0]
    row = simulate_qaoa_p1(g, "cx", None, 0.3, [0.7, 0.1], noise)
    assert row.shape == (1, 2) and row[0, 0] == pytest.approx(value, abs=1e-12)


def global_pulse(g):
    """K_n at weight w as one unflipped row of strength w: integer strengths."""
    return PulseSequence.from_pairs(g.n, [(0, g.uniform_weight())])


K6 = Graph.complete(6)
C6 = Graph.unweighted(6, [(i, (i + 1) % 6) for i in range(6)])
ER6_123 = random_er_graph(6, 0.5, (1, 2, 3), 1)
HALF5 = random_er_graph(5, 0.6, ("1/2", 1), 2)
ER4_3HALF = random_er_graph(4, 0.6, ("3/2", 1), 2)  # its grid-8 maximum lies past gamma = pi
C4_2 = Graph.from_edges(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 2)])
# (id, graph, compilation, sequence builder); "periodic" marks the cost
# layers that qaoa._periodic_layer takes as 2pi-periodic in gamma.
TIE_CASES = [
    ("k6_cx_periodic", K6, "cx", None),
    ("k6_ms_stars", K6, "ms", union_of_stars),
    ("k6_ms_global_periodic", K6, "ms", global_pulse),
    ("c6_cx_periodic", C6, "cx", None),
    ("c6_ms_stars", C6, "ms", union_of_stars),
    ("er6_123_cx_periodic", ER6_123, "cx", None),
    ("half5_cx", HALF5, "cx", None),
    ("half5_ms_edges", HALF5, "ms", weighted_edge_by_edge),
    ("er4_3half_cx", ER4_3HALF, "cx", None),
    ("er4_3half_ms_edges", ER4_3HALF, "ms", weighted_edge_by_edge),
]


@pytest.mark.parametrize("res", [8, 9])
@pytest.mark.parametrize("name, g, compilation, construct", TIE_CASES,
                         ids=[c[0] for c in TIE_CASES])
def test_ties_resolve_to_the_smallest_angles(name, g, compilation, construct, res):
    seq = construct(g) if construct else None
    assert qaoa._periodic_layer(g, compilation, seq) == name.endswith("_periodic")
    noise = NoiseSpec(0.005)
    gammas = 2 * math.pi * np.arange(res) / res
    betas = math.pi * np.arange(res) / res
    grid = simulate_qaoa_p1(g, compilation, seq, gammas, betas, noise)
    cmax = float(maxcut_brute_force(g))
    near = np.argwhere(grid >= grid.max() - qaoa.TIE_TOLERANCE * max(1.0, cmax))
    i, j = near[0]  # argwhere is row-major: the smallest gamma, then the smallest beta
    gamma, beta, value, ratio = optimize_angles(g, compilation, seq, noise, grid_resolution=res)
    assert (gamma, beta) == (gammas[i], betas[j])
    assert value == grid[i, j]
    assert ratio == grid[i, j] / cmax


MIRROR_CASES = [
    ("k4_cx", Graph.complete(4), "cx", None, True),
    ("er5_123_cx", random_er_graph(5, 0.7, (1, 2, 3), 4), "cx", None, True),
    ("k4_ms_global", Graph.complete(4), "ms", global_pulse, True),
    ("c4_weight2_ms_l0", C4_2, "ms", lambda g: solve_l0(g).sequence, True),
    ("k6_ms_stars", K6, "ms", union_of_stars, False),
    ("half5_cx", HALF5, "cx", None, False),
]


@pytest.mark.parametrize("name, g, compilation, construct, periodic", MIRROR_CASES,
                         ids=[c[0] for c in MIRROR_CASES])
def test_mirror_identity_holds_exactly_when_the_layer_is_taken_as_periodic(
        name, g, compilation, construct, periodic):
    """E(2pi - gamma, beta) = E(gamma, pi - beta) for integer weights and
    strengths; the K6 star sequence (strengths 3/2 and -1/4) and a 1/2
    weight break it by far more than rounding, so the scan must not fold
    them."""
    seq = construct(g) if construct else None
    assert qaoa._periodic_layer(g, compilation, seq) == periodic
    noise = NoiseSpec(0.03, 0.5)
    gammas = np.array([0.3, 1.1, 2.0, 2.9])
    betas = np.array([0.2, 0.7, 1.3, 2.5])
    here = simulate_qaoa_p1(g, compilation, seq, 2 * math.pi - gammas, betas, noise)
    mirror = simulate_qaoa_p1(g, compilation, seq, gammas, math.pi - betas, noise)
    gap = np.abs(here - mirror).max()
    if periodic:
        assert gap < 1e-12
    else:
        assert gap > 1e-6


def test_one_scan_is_one_simulation_with_one_verify(monkeypatch):
    calls = {"simulate": 0, "verify": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qaoa, "simulate_qaoa_p1", counted("simulate", qaoa.simulate_qaoa_p1))
    monkeypatch.setattr(qaoa, "verify", counted("verify", qaoa.verify))
    g = Graph.complete(4)
    optimize_angles(g, "ms", union_of_stars(g), NoiseSpec(0.01), grid_resolution=8)
    assert calls == {"simulate": 1, "verify": 1}


def test_an_oversized_scan_is_refused_before_the_cut_is_scanned(monkeypatch):
    """The ratio reads the Max-Cut value only after the simulation, so the
    size check comes first; a graph with no positive cut is still refused."""
    def no_scan(g):
        raise AssertionError("the cut was scanned")

    monkeypatch.setattr(qaoa, "maxcut_brute_force", no_scan)
    path = Graph.unweighted(18, [(i, i + 1) for i in range(17)])
    with pytest.raises(ValueError, match=r"n=18 with 5 gammas and 8 betas .* 1 GiB"):
        optimize_angles(path, "cx", None, grid_resolution=8)
    monkeypatch.undo()
    negative = Graph.from_edges(3, [(0, 1, -1), (1, 2, -2)])
    with pytest.raises(ValueError, match="no positive cut"):
        optimize_angles(negative, "cx", None, grid_resolution=8)


@pytest.mark.parametrize("compilation", ["cx", "ms"])
def test_a_positive_cut_that_underflows_float64_is_refused(compilation):
    """A cut of 1e-400 is positive, but its float is 0, so no ratio can be
    formed: one ValueError, which does not say the cut is not positive."""
    g = Graph.from_edges(2, [(0, 1, Fraction(1, 10**400))])
    assert maxcut_brute_force(g) > 0
    with pytest.raises(ValueError, match="^maximum cut underflows float64; ratio undefined$"):
        optimize_angles(g, compilation, union_of_stars(g) if compilation == "ms" else None,
                        grid_resolution=8)
