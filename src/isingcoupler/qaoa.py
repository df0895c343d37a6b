"""Noisy Max-Cut QAOA (p=1) density-matrix simulation.

Compares two compilations of the cost layer exp(-i*gamma*C'), where C' is
the diagonal Max-Cut operator of the target graph:

- "cx": per edge, CNOT / Rz / CNOT with two-qubit depolarizing noise on each
  CNOT and minor noise on the rotation (all-to-all connectivity assumed);
- "ms": per pulse-sequence row, bit flips around a global Ising evolution
  with n-qubit depolarizing noise on the evolution (a worst-case assumption)
  and minor noise on each flip.

Minor noise is single-qubit depolarizing followed by a phase flip, each at
0.1 times the major rate; measurement noise is an independent bit flip per
qubit at the same minor rate, applied as a channel before the expectation is
taken.  Basis convention: bit i of a computational index is qubit i.

Both compilations implement the same unitary at zero noise, so their
expectations agree exactly there.

One call to ``simulate_qaoa_p1`` evaluates a whole gamma x beta grid and
shares every piece of work that does not depend on both angles:

- The noisy cost layer depends only on gamma, and within it only the Rz and
  Ising phase diagonals do.  So one pass over the circuit acts on the
  (G, 2^n, 2^n) stack of all G gammas' density matrices at once; every other
  op is the same for all of them.  The stack takes O(G 4^n) memory, the same
  order as the O(B 4^n) ``rows`` array of the B observables below.  A call
  needing over MAX_SIMULATION_BYTES for the two is refused before either.
- After the mixer only diag(rho) is read, and every channel there maps
  diagonals to diagonals: minor depolarizing d -> (1-r) d + r (d + d o flip_q)/2,
  the phase flip leaves d unchanged, and the measurement flip
  d -> (1-r) d + r d o flip_q.  These maps are symmetric and commute, so the
  read-out folds into one effective cost vector c_eff = M c per call.
- The value at (gamma, beta) is then Re <O_beta, rho_gamma> with the
  observable O_beta = U_beta^dag diag(c_eff) U_beta, built once per beta;
  the whole grid is one matrix product of the stack with those rows.

An ms sequence is checked with ``pulses.verify`` once per call.

Channels act on qubit blocks.  With rho viewed as one size-2 row axis and
one size-2 column axis per qubit, depolarizing a qubit set S at rate lam
scales rho by 1-lam and adds lam times the mean of the 2^|S| diagonal blocks
(row bits equal column bits on S) to each of them: that is
(1-lam) rho + lam I/2^|S| (x) tr_S rho.  Minor noise on qubit q mixes q's two
diagonal blocks a, c into (1-r/2) a + (r/2) c and (1-r/2) c + (r/2) a and
scales its two off-diagonal blocks by (1-r)(1-2r), in place.  Both
compilations get their phases from one rule, D = exp(-i angles (x) values)
applied as D rho D^dag, and a CNOT is one flat gather.

The ms flips are not simulated as gates.  A row with flip mask m is, in
time order, X_m then minor noise M on the qubits of m, the Ising phase D,
full depolarizing Dep, and X_m then M again.  M commutes with X_m (the
depolarizing part commutes with every single-qubit unitary, and the phase
flip's Z anticommutes with X), and Dep on all n qubits commutes with every
unitary, so X_m M D Dep X_m M = M D_m Dep M, where D_m = X_m D X_m is the
Ising phase at the energies E(x ^ m).  This is an exact identity of the
model: every noisy flip is still applied, as often as before.  It is not a
merged-flip model, which would charge fewer flips by sharing them between
consecutive rows and so change the noise.

Depolarizing on a qubit set S commutes with every unitary and every unital
channel that acts only within S, and k of them at rate lam make one at rate
1-(1-lam)^k.  So a cx edge's two Dep(u, v) apply as one after its second
CNOT, and the L full-register Dep of an ms layer apply as one at its end.

A grid scan needs only the gammas up to pi when the layer is 2pi-periodic
in gamma, by two identities of the model:

- rho(-gamma) = conj rho(gamma): the initial state and every channel are
  real, and only the phases depend on gamma.
- O_{pi-beta} = conj O_beta: exp(-i pi X) = -I and X is real.

So E(-gamma, beta) = <O_beta, conj rho(gamma)> = E(gamma, pi-beta), and
E(gamma, pi) = E(gamma, 0).  The layer is 2pi-periodic when every cx edge
weight z is an integer (gamma -> gamma + 2pi multiplies Rz(-gamma z) by the
global sign (-1)^z), or every ms row strength w is (two basis states' Ising
phases differ by gamma w dE/2, and dE/2 is an integer).  Otherwise the scan
takes every gamma: a strength of 3/2 or -1/4 does break the symmetry.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph
from .pulses import PulseSequence, verify

MAX_BRUTE_FORCE_N = 20
# Safety cap on (G + B) 4^n complex entries for a G x B grid (stack plus rows)
MAX_SIMULATION_BYTES = 1 << 30
CX = "cx"
MS = "ms"
# Grid values within this fraction of max(1, C_max) of the maximum are ties:
# exact ties (every gamma=0 point, for one) differ only by float rounding.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """Composite noise model scaled from one major depolarizing rate."""

    major_rate: float
    minor_ratio: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.major_rate <= 1.0:
            raise ValueError("major rate must be in [0, 1]")
        if self.minor_ratio < 0:
            raise ValueError("minor ratio must be nonnegative")
        if not 0.0 <= self.minor_rate <= 1.0:
            raise ValueError("minor rate must be in [0, 1]")

    @property
    def minor_rate(self) -> float:
        return self.minor_ratio * self.major_rate


ZERO_NOISE = NoiseSpec(0.0)


def build_cost_operator(g: Graph) -> np.ndarray:
    """Diagonal of C': the cut value of every computational basis state."""
    idx = np.arange(1 << g.n)
    diag = np.zeros(1 << g.n)
    for u, v, z in g.edges:
        diag += (((idx >> u) ^ (idx >> v)) & 1) * float(z)
    return diag


def maxcut_brute_force(g: Graph) -> Fraction:
    """Exact Max-Cut value by scanning all 2^n bitmasks."""
    if g.n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"n={g.n} too large (limit {MAX_BRUTE_FORCE_N})")
    denom = math.lcm(*(z.denominator for _, _, z in g.edges)) if g.edges else 1
    weights = [int(z * denom) for _, _, z in g.edges]
    # int64 holds every cut sum while the absolute weights sum below 2^63;
    # beyond that the sums are Python integers
    dtype = np.int64 if sum(map(abs, weights)) < 1 << 63 else object
    idx = np.arange(1 << g.n)
    cuts = np.zeros(1 << g.n, dtype=dtype)
    for (u, v, _), w in zip(g.edges, weights):
        cuts += (((idx >> u) ^ (idx >> v)) & 1).astype(dtype, copy=False) * w
    return Fraction(int(cuts.max()), denom)


def _check_float_range(g: Graph, compilation: str, seq: PulseSequence | None) -> None:
    """Raise ValueError unless the absolute edge weights, and for ms the
    absolute row strengths, sum to a float64: the simulation runs in
    float64, and every cut value then stays finite."""
    groups = [[z for _, _, z in g.edges]]
    if compilation == MS and seq is not None:
        groups.append(seq.strengths)
    try:
        for values in groups:
            float(sum(map(abs, values)))
    except OverflowError:
        raise ValueError("weights beyond float64 range: the simulation runs in float64") from None


@functools.lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return idx ^ (((idx >> control) & 1) << target)


@functools.lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    """popcount(x) for every basis state x < 2^n, as int64."""
    return np.array([x.bit_count() for x in range(1 << n)], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _zz_energies(n: int) -> np.ndarray:
    """sum_{i<j} z_i z_j for each basis state, z_i = +-1 from bit i."""
    s = n - 2 * _popcounts(n)
    return (s * s - n) / 2.0


def _diagonal_blocks(rho: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """A writeable view of the blocks of rho (a matrix or a stack) whose row
    and column bits agree on every qubit in qubits.  Its last len(qubits)
    axes pick the block; the axes before them index within it."""
    row = string.ascii_letters[:n]  # one einsum letter per qubit axis
    col = [row[q] if q in qubits else string.ascii_letters[n + q] for q in range(n)]
    order = range(n - 1, -1, -1)  # the most significant qubit is the first axis
    source = "".join(row[q] for q in order) + "".join(col[q] for q in order)
    free = [q for q in order if q not in qubits]
    target = "".join(row[q] for q in free) + "".join(col[q] for q in free)
    target += "".join(row[q] for q in qubits)
    t = rho.reshape(rho.shape[:-2] + (2,) * (2 * n))
    return np.einsum(f"...{source}->...{target}", t)


def apply_depolarizing(rho: np.ndarray, qubits, lam: float, n: int) -> np.ndarray:
    """rho -> (1-lam) rho + lam * (maximally mixed on qubits (x) the partial
    trace of rho over them).

    rho is one density matrix or a stack (..., 2^n, 2^n) of them; the input
    is never modified.  On the qubit set S the channel keeps the
    off-diagonal blocks (row and column bits differ somewhere on S) scaled by
    1-lam, and adds lam times the mean of the 2^|S| diagonal blocks to each
    of them.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing rate must be in [0, 1]")
    qubits = tuple(sorted(set(qubits)))
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    if lam == 0.0 or not qubits:
        return rho
    out = (1.0 - lam) * rho
    block_axes = tuple(range(-len(qubits), 0))
    mean = _diagonal_blocks(rho, qubits, n).mean(axis=block_axes, keepdims=True)
    _diagonal_blocks(out, qubits, n)[...] += lam * mean
    return out


def _apply_minor(rho: np.ndarray, qubit: int, rate: float, n: int) -> None:
    """Minor noise on one qubit, in place on a C-contiguous stack: single-
    qubit depolarizing then a phase flip, each at rate.  With a and c the
    qubit's two diagonal blocks, a -> (1-r/2) a + (r/2) c and c likewise;
    both off-diagonal blocks are scaled by (1-r)(1-2r)."""
    if rate == 0.0:
        return
    high, low = 1 << (n - 1 - qubit), 1 << qubit
    t = rho.reshape(-1, high, 2, low, high, 2, low)
    a, c = t[:, :, 0, :, :, 0], t[:, :, 1, :, :, 1]
    shift = c - a
    shift *= rate / 2.0
    a += shift
    c -= shift
    t[:, :, 0, :, :, 1] *= (1.0 - rate) * (1.0 - 2.0 * rate)
    t[:, :, 1, :, :, 0] *= (1.0 - rate) * (1.0 - 2.0 * rate)


def _apply_phases(rho: np.ndarray, angles: np.ndarray, values: np.ndarray) -> None:
    """rho -> D rho D^dag in place for the (G, 2^n) stack of phase diagonals
    D = exp(-i angles (x) values): row k is exp(-i angles[k] values)."""
    d = np.exp(-1j * np.multiply.outer(angles, values))
    rho *= d[..., :, None]
    rho *= d.conj()[..., None, :]


def _apply_cnot(rho: np.ndarray, pair_index: np.ndarray) -> np.ndarray:
    """rho -> P rho P for the permutation P whose flat pair index is given."""
    return np.take(rho.reshape(rho.shape[0], -1), pair_index, axis=-1).reshape(rho.shape)


@functools.lru_cache(maxsize=None)
def _pair_popcounts(n: int) -> np.ndarray:
    """popcount(x ^ y) for every pair of basis states, as int8."""
    idx = np.arange(1 << n)
    return _popcounts(n).astype(np.int8)[idx[:, None] ^ idx[None, :]]


def _mixer_unitary(n: int, beta: float) -> np.ndarray:
    """prod_q exp(-i beta X_q): entry (x, y) is cos^(n-k) beta (-i sin beta)^k
    with k = popcount(x ^ y)."""
    k = np.arange(n + 1)
    powers = np.cos(beta) ** (n - k) * np.sin(beta) ** k
    amplitudes = powers * np.array([1.0, -1j, -1.0, 1j])[k % 4]
    return amplitudes[_pair_popcounts(n)]


def _plus_states(count: int, n: int) -> np.ndarray:
    """count copies of |+...+><+...+|.  A layer makes its own, so that it
    holds the only reference and each new stack frees the one before."""
    dim = 1 << n
    return np.full((count, dim, dim), 1.0 / dim, dtype=complex)


def _cx_layer(g: Graph, gammas: np.ndarray, noise: NoiseSpec):
    n, dim = g.n, 1 << g.n
    rho = _plus_states(len(gammas), n)
    # An edge's two Dep(u, v) commute with its CNOTs, Rz and minor noise,
    # which act within {u, v}; they apply as one after the second CNOT.
    pair_rate = 1.0 - (1.0 - noise.major_rate) ** 2
    for u, v, z in g.edges:
        perm = _cnot_perm(n, u, v)
        pair_index = (perm[:, None] * dim + perm).ravel()
        rho = _apply_cnot(rho, pair_index)
        # Rz(-gamma z) on v: the phase -gamma z / 2 times the +-1 sign of v
        _apply_phases(rho, -gammas * float(z) / 2.0, 1.0 - 2.0 * ((np.arange(dim) >> v) & 1))
        _apply_minor(rho, v, noise.minor_rate, n)
        rho = _apply_cnot(rho, pair_index)
        rho = apply_depolarizing(rho, (u, v), pair_rate, n)
    return rho


def _ms_layer(seq: PulseSequence, gammas: np.ndarray, noise: NoiseSpec):
    n = seq.n
    rho = _plus_states(len(gammas), n)
    # Each row's flips X_m fold into its Ising phase, evaluated at the
    # energies E(x ^ m); the module docstring gives the identity.
    energies = _zz_energies(n)
    idx = np.arange(1 << n)
    for mask, w in zip(seq.rows, seq.strengths):
        flipped = [q for q in range(n) if mask >> q & 1]
        for q in flipped:
            _apply_minor(rho, q, noise.minor_rate, n)
        _apply_phases(rho, -gammas * float(w) / 2.0, energies[idx ^ mask])
        for q in flipped:
            _apply_minor(rho, q, noise.minor_rate, n)
    # Dep on all n qubits commutes with every op of the layer, so the L
    # rows' depolarizings apply as one at the end.
    full_rate = 1.0 - (1.0 - noise.major_rate) ** len(seq.rows)
    return apply_depolarizing(rho, range(n), full_rate, n)


def _effective_cost(g: Graph, noise: NoiseSpec) -> np.ndarray:
    """c_eff = M c: the minor and measurement channels after the mixer, folded
    into the cost vector (each is symmetric on diagonals, and they commute)."""
    c = build_cost_operator(g)
    r = noise.minor_rate
    for q in range(g.n):
        flip = np.arange(1 << g.n) ^ (1 << q)
        c = (1.0 - r) * c + r * (c + c[flip]) / 2.0
        c = (1.0 - r) * c + r * c[flip]
    return c


def check_angles(values) -> np.ndarray:
    """values (a float or a 1-D sequence) as a 1-D array, or raise
    ValueError when it has another shape or a non-finite entry."""
    angles = np.atleast_1d(np.asarray(values, dtype=float))
    if angles.ndim != 1:
        raise ValueError("angles must be floats or 1-D sequences")
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    return angles


def simulate_qaoa_p1(
    g: Graph,
    compilation: str,
    seq: PulseSequence | None,
    gamma,
    beta,
    noise: NoiseSpec = ZERO_NOISE,
) -> float | np.ndarray:
    """Expectation of C' after one noisy QAOA layer from |+...+>.

    gamma and beta are each a float or a 1-D sequence.  Two floats give a
    float; otherwise the result is a (len(gamma), len(beta)) array with the
    expectation at every grid point.
    """
    gammas, betas = check_angles(gamma), check_angles(beta)
    if compilation == MS:
        if seq is None or not verify(seq, g):
            raise ValueError("ms compilation needs a sequence realizing the graph")
    elif compilation != CX:
        raise ValueError(f"unknown compilation {compilation!r}")
    _check_float_range(g, compilation, seq)
    n = g.n
    if 16 * (len(gammas) + len(betas)) << (2 * n) > MAX_SIMULATION_BYTES:
        raise ValueError(f"n={n} with {len(gammas)} gammas and {len(betas)} betas needs more "
                         f"than the {MAX_SIMULATION_BYTES >> 30} GiB simulation limit")
    c_eff = _effective_cost(g, noise)
    # Row j holds conj(O_j) for O_j = U_j^dag diag(c_eff) U_j, so that
    # rows @ vec(rho) = <O_j, rho> = tr(diag(c_eff) U_j rho U_j^dag).
    rows = np.empty((len(betas), 1 << (2 * n)), dtype=complex)
    for j, b in enumerate(betas):
        u = _mixer_unitary(n, b)
        rows[j] = (u.T @ (c_eff[:, None] * u.conj())).ravel()
    rhos = _cx_layer(g, gammas, noise) if compilation == CX else _ms_layer(seq, gammas, noise)
    values = np.real(rhos.reshape(len(gammas), -1) @ rows.T)
    if np.ndim(gamma) == 0 and np.ndim(beta) == 0:
        return float(values[0, 0])
    return values


def _periodic_layer(g: Graph, compilation: str, seq: PulseSequence | None) -> bool:
    """True when the noisy cost layer is 2pi-periodic in gamma: every cx
    edge weight, or every ms row strength, is an integer."""
    if compilation == CX:
        weights = [z for _, _, z in g.edges]
    elif seq is not None:
        weights = seq.strengths
    else:
        return False
    return all(Fraction(w).denominator == 1 for w in weights)


def check_grid_resolution(grid_resolution: int) -> int:
    """Return grid_resolution, or raise ValueError when it is below 8."""
    if grid_resolution < 8:
        raise ValueError(f"grid resolution must be at least 8, got {grid_resolution}")
    return grid_resolution


def optimize_angles(
    g: Graph,
    compilation: str,
    seq: PulseSequence | None,
    noise: NoiseSpec = ZERO_NOISE,
    grid_resolution: int = 32,
) -> tuple[float, float, float, float]:
    """Best (gamma, beta) on a dense grid, the expectation there, and its
    approximation ratio.

    Scans the grid gamma_k = 2pi k/G in [0, 2pi) by beta_j = pi j/G in
    [0, pi), G = grid_resolution, in one simulation call.  Values within
    TIE_TOLERANCE * max(1, C_max) of the maximum are ties, and ties resolve
    to the lexicographically smallest (gamma, beta), so float rounding does
    not pick among them.

    When the cost layer is 2pi-periodic in gamma (``_periodic_layer``), only
    k = 0..floor(G/2) is simulated: each value at k > G/2 equals the one at
    (gamma_{G-k}, beta_{(G-j) mod G}), a smaller gamma (module docstring), so
    the smallest maximizing (gamma, beta) is among those simulated.
    """
    check_grid_resolution(grid_resolution)
    cut = maxcut_brute_force(g)
    if cut <= 0:
        raise ValueError("graph has no positive cut; ratio undefined")
    steps = np.arange(grid_resolution)
    gammas = 2.0 * math.pi * steps / grid_resolution
    betas = math.pi * steps / grid_resolution
    if _periodic_layer(g, compilation, seq):
        gammas = gammas[: grid_resolution // 2 + 1]
    values = simulate_qaoa_p1(g, compilation, seq, gammas, betas, noise)
    cmax = float(cut)  # within float64: simulate_qaoa_p1 checked the weight sum
    near_max = values >= values.max() - TIE_TOLERANCE * max(1.0, cmax)
    i, j = divmod(int(np.flatnonzero(near_max)[0]), grid_resolution)
    value = float(values[i, j])
    return float(gammas[i]), float(betas[j]), value, value / cmax
