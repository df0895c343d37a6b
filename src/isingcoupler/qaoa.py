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

- The noisy cost layer depends only on gamma, so the density matrix
  rho_gamma is built once per gamma.
- After the mixer only diag(rho) is read, and every channel there maps
  diagonals to diagonals: minor depolarizing d -> (1-r) d + r (d + d o flip_q)/2,
  the phase flip leaves d unchanged, and the measurement flip
  d -> (1-p) d + p d o flip_q.  These maps are symmetric and commute, so the
  read-out folds into one effective cost vector c_eff = M c per call.
- The value at (gamma, beta) is then Re <O_beta, rho_gamma> with the
  observable O_beta = U_beta^dag diag(c_eff) U_beta, built once per beta;
  each rho_gamma gives its row of the grid in one matrix-vector product.

An ms sequence is checked with ``pulses.verify`` once per call.

Depolarizing a qubit set S, I/2^s (x) tr_S rho, is the full single-qubit
depolarization applied to each qubit of S in turn, and each of those is a
slice-and-average on a reshaped view of rho.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph
from .pulses import PulseSequence, verify

MAX_BRUTE_FORCE_N = 20
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
    measurement_flip: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.major_rate <= 1.0:
            raise ValueError("major rate must be in [0, 1]")
        if self.minor_ratio < 0:
            raise ValueError("minor ratio must be nonnegative")
        if not (0.0 <= self.minor_rate <= 1.0 and 0.0 <= self.measurement_rate <= 1.0):
            raise ValueError("minor and measurement rates must be in [0, 1]")

    @property
    def minor_rate(self) -> float:
        return self.minor_ratio * self.major_rate

    @property
    def measurement_rate(self) -> float:
        if self.measurement_flip is not None:
            return self.measurement_flip
        return self.minor_rate


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
    idx = np.arange(1 << g.n)
    cuts = np.zeros(1 << g.n, dtype=np.int64)
    for u, v, z in g.edges:
        cuts += (((idx >> u) ^ (idx >> v)) & 1) * int(z * denom)
    return Fraction(int(cuts.max()), denom)


@functools.lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return idx ^ (((idx >> control) & 1) << target)


@functools.lru_cache(maxsize=None)
def _flip_perm(n: int, qubit: int) -> np.ndarray:
    return np.arange(1 << n) ^ (1 << qubit)


@functools.lru_cache(maxsize=None)
def _zz_energies(n: int) -> np.ndarray:
    """sum_{i<j} z_i z_j for each basis state, z_i = +-1 from bit i."""
    idx = np.arange(1 << n)
    pop = np.array([int(b).bit_count() for b in idx])
    s = n - 2 * pop
    return (s * s - n) / 2.0


def _apply_permutation(rho: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return rho[perm][:, perm]


def _apply_diagonal(rho: np.ndarray, d: np.ndarray) -> np.ndarray:
    return rho * np.outer(d, d.conj())


def _depolarize_qubit_fully(rho: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """I/2 (x) tr_qubit rho."""
    high, low = 1 << (n - 1 - qubit), 1 << qubit
    t = rho.reshape(high, 2, low, high, 2, low)
    average = (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]) / 2.0
    out = np.zeros_like(t)
    out[:, 0, :, :, 0, :] = average
    out[:, 1, :, :, 1, :] = average
    return out.reshape(rho.shape)


def apply_depolarizing(rho: np.ndarray, qubits, lam: float, n: int) -> np.ndarray:
    """rho -> (1-lam) rho + lam * (maximally mixed on qubits (x) rest)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing rate must be in [0, 1]")
    qubits = tuple(sorted(set(qubits)))
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    if lam == 0.0 or not qubits:
        return rho
    if len(qubits) == n:
        dim = 1 << n
        mixed = np.eye(dim) * (rho.trace().real / dim)
    else:
        mixed = rho
        for q in qubits:
            mixed = _depolarize_qubit_fully(mixed, q, n)
    return (1.0 - lam) * rho + lam * mixed


def _apply_phase_flip(rho: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    if p == 0.0:
        return rho
    signs = 1.0 - 2.0 * ((np.arange(1 << n) >> qubit) & 1)
    return (1.0 - p) * rho + p * _apply_diagonal(rho, signs)


def _apply_minor(rho: np.ndarray, qubit: int, noise: NoiseSpec, n: int) -> np.ndarray:
    rate = noise.minor_rate
    if rate == 0.0:
        return rho
    rho = apply_depolarizing(rho, (qubit,), rate, n)
    return _apply_phase_flip(rho, qubit, rate, n)


def _mixer_unitary(n: int, beta: float) -> np.ndarray:
    one = np.array(
        [[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]]
    )
    u = np.array([[1.0 + 0j]])
    for _ in range(n):
        u = np.kron(one, u)  # qubit 0 is the least significant bit
    return u


def _rz_diagonal(n: int, qubit: int, theta: float) -> np.ndarray:
    bits = (np.arange(1 << n) >> qubit) & 1
    return np.exp(-1j * theta / 2.0 * (1.0 - 2.0 * bits))


def _cx_layer(rho, g: Graph, gamma: float, noise: NoiseSpec, n: int):
    for u, v, z in g.edges:
        perm = _cnot_perm(n, u, v)
        rho = _apply_permutation(rho, perm)
        rho = apply_depolarizing(rho, (u, v), noise.major_rate, n)
        rho = _apply_diagonal(rho, _rz_diagonal(n, v, -gamma * float(z)))
        rho = _apply_minor(rho, v, noise, n)
        rho = _apply_permutation(rho, perm)
        rho = apply_depolarizing(rho, (u, v), noise.major_rate, n)
    return rho


def _ms_layer(rho, seq: PulseSequence, gamma: float, noise: NoiseSpec, n: int):
    energies = _zz_energies(n)
    for mask, w in zip(seq.rows, seq.strengths):
        flipped = [q for q in range(n) if mask >> q & 1]
        for q in flipped:
            rho = _apply_permutation(rho, _flip_perm(n, q))
            rho = _apply_minor(rho, q, noise, n)
        phi = -gamma * float(w) / 2.0
        rho = _apply_diagonal(rho, np.exp(-1j * phi * energies))
        rho = apply_depolarizing(rho, tuple(range(n)), noise.major_rate, n)
        for q in flipped:
            rho = _apply_permutation(rho, _flip_perm(n, q))
            rho = _apply_minor(rho, q, noise, n)
    return rho


def _cost_layer(
    g: Graph, compilation: str, seq: PulseSequence | None, gamma: float, noise: NoiseSpec
) -> np.ndarray:
    """The noisy cost layer exp(-i gamma C') applied to |+...+><+...+|."""
    dim = 1 << g.n
    rho = np.full((dim, dim), 1.0 / dim, dtype=complex)
    if compilation == CX:
        return _cx_layer(rho, g, gamma, noise, g.n)
    return _ms_layer(rho, seq, gamma, noise, g.n)


def _effective_cost(g: Graph, noise: NoiseSpec) -> np.ndarray:
    """c_eff = M c: the minor and measurement channels after the mixer, folded
    into the cost vector (each is symmetric on diagonals, and they commute)."""
    c = build_cost_operator(g)
    r, p = noise.minor_rate, noise.measurement_rate
    for q in range(g.n):
        flip = _flip_perm(g.n, q)
        c = (1.0 - r) * c + r * (c + c[flip]) / 2.0
        c = (1.0 - p) * c + p * c[flip]
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
    n = g.n
    c_eff = _effective_cost(g, noise)
    # Row j holds conj(O_j) for O_j = U_j^dag diag(c_eff) U_j, so that
    # rows @ vec(rho) = <O_j, rho> = tr(diag(c_eff) U_j rho U_j^dag).
    rows = np.empty((len(betas), 1 << (2 * n)), dtype=complex)
    for j, b in enumerate(betas):
        u = _mixer_unitary(n, b)
        rows[j] = (u.T @ (c_eff[:, None] * u.conj())).ravel()
    values = np.empty((len(gammas), len(betas)))
    for i, gm in enumerate(gammas):
        values[i] = np.real(rows @ _cost_layer(g, compilation, seq, gm, noise).ravel())
    if np.ndim(gamma) == 0 and np.ndim(beta) == 0:
        return float(values[0, 0])
    return values


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

    Scans gamma in [0, 2pi) and beta in [0, pi) at the given resolution in
    one simulation call.  Values within TIE_TOLERANCE * max(1, C_max) of the
    maximum are ties, and ties resolve to the lexicographically smallest
    (gamma, beta), so float rounding does not pick among them.
    """
    check_grid_resolution(grid_resolution)
    cmax = float(maxcut_brute_force(g))
    if cmax <= 0:
        raise ValueError("graph has no positive cut; ratio undefined")
    steps = np.arange(grid_resolution)
    gammas = 2.0 * math.pi * steps / grid_resolution
    betas = math.pi * steps / grid_resolution
    values = simulate_qaoa_p1(g, compilation, seq, gammas, betas, noise)
    near_max = values >= values.max() - TIE_TOLERANCE * max(1.0, cmax)
    i, j = divmod(int(np.flatnonzero(near_max)[0]), grid_resolution)
    value = float(values[i, j])
    return float(gammas[i]), float(betas[j]), value, value / cmax
