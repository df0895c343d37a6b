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


def plus_state_density(n: int) -> np.ndarray:
    dim = 1 << n
    return np.full((dim, dim), 1.0 / dim, dtype=complex)


def is_physical_density(
    rho: np.ndarray, herm_tol=1e-12, trace_tol=1e-12, eig_tol=1e-10
) -> bool:
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        return False
    if abs(rho.trace() - 1.0) > trace_tol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() > -eig_tol)


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


@functools.lru_cache(maxsize=None)
def _mix_permutations(n: int, qubits: tuple[int, ...]):
    """Index maps placing the given qubits in the high bit positions."""
    rest = tuple(q for q in range(n) if q not in qubits)
    order = rest + qubits  # low positions first
    to_new = np.zeros(1 << n, dtype=np.intp)
    for b in range(1 << n):
        new = 0
        for pos, q in enumerate(order):
            new |= ((b >> q) & 1) << pos
        to_new[b] = new
    return to_new


def _apply_permutation(rho: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return rho[np.ix_(perm, perm)]


def _apply_diagonal(rho: np.ndarray, d: np.ndarray) -> np.ndarray:
    return rho * np.outer(d, d.conj())


def apply_depolarizing(rho: np.ndarray, qubits, lam: float, n: int) -> np.ndarray:
    """rho -> (1-lam) rho + lam * (maximally mixed on qubits (x) rest)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing rate must be in [0, 1]")
    qubits = tuple(sorted(set(qubits)))
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    if lam == 0.0 or not qubits:
        return rho
    s = len(qubits)
    if s == n:
        mixed = np.eye(1 << n, dtype=complex) * (rho.trace().real / (1 << n))
    else:
        to_new = _mix_permutations(n, qubits)
        src = np.empty_like(to_new)
        src[to_new] = np.arange(to_new.size)
        perm_rho = rho[np.ix_(src, src)]
        dim_s, dim_r = 1 << s, 1 << (n - s)
        blocks = perm_rho.reshape(dim_s, dim_r, dim_s, dim_r)
        reduced = np.einsum("abad->bd", blocks)
        mixed_new = np.kron(np.eye(dim_s, dtype=complex) / dim_s, reduced)
        mixed = mixed_new[np.ix_(to_new, to_new)]
    return (1.0 - lam) * rho + lam * mixed


def _apply_bit_flip(rho: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    if p == 0.0:
        return rho
    perm = _flip_perm(n, qubit)
    return (1.0 - p) * rho + p * _apply_permutation(rho, perm)


def _apply_phase_flip(rho: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    if p == 0.0:
        return rho
    signs = 1.0 - 2.0 * ((np.arange(1 << n) >> qubit) & 1)
    return (1.0 - p) * rho + p * _apply_diagonal(rho, signs.astype(complex))


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
    for row, w in zip(seq.rows, seq.strengths):
        flipped = [q for q in range(n) if row.signs[q] == -1]
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


def simulate_qaoa_p1(
    g: Graph,
    compilation: str,
    seq: PulseSequence | None,
    gamma: float,
    beta: float,
    noise: NoiseSpec = ZERO_NOISE,
) -> float:
    """Expectation of C' after one noisy QAOA layer from |+...+>."""
    if not (math.isfinite(gamma) and math.isfinite(beta)):
        raise ValueError("angles must be finite")
    n = g.n
    rho = plus_state_density(n)
    if compilation == CX:
        rho = _cx_layer(rho, g, gamma, noise, n)
    elif compilation == MS:
        if seq is None or not verify(seq, g):
            raise ValueError("ms compilation needs a sequence realizing the graph")
        rho = _ms_layer(rho, seq, gamma, noise, n)
    else:
        raise ValueError(f"unknown compilation {compilation!r}")
    rho = _mixer_unitary(n, beta) @ rho @ _mixer_unitary(n, beta).conj().T
    for q in range(n):
        rho = _apply_minor(rho, q, noise, n)
    for q in range(n):
        rho = _apply_bit_flip(rho, q, noise.measurement_rate, n)
    return float(np.real(np.sum(build_cost_operator(g) * rho.diagonal())))


def simulate_qaoa_p1_statevector(
    g: Graph, compilation: str, seq: PulseSequence | None, gamma: float, beta: float
) -> float:
    """Noise-free cross-check using a pure state instead of a density matrix."""
    n = g.n
    psi = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    if compilation == CX:
        for u, v, z in g.edges:
            perm = _cnot_perm(n, u, v)
            psi = psi[perm]
            psi = psi * _rz_diagonal(n, v, -gamma * float(z))
            psi = psi[perm]
    elif compilation == MS:
        if seq is None or not verify(seq, g):
            raise ValueError("ms compilation needs a sequence realizing the graph")
        energies = _zz_energies(n)
        for row, w in zip(seq.rows, seq.strengths):
            flips = np.arange(1 << n) ^ (row.mask)
            psi = psi[flips]
            psi = psi * np.exp(-1j * (-gamma * float(w) / 2.0) * energies)
            psi = psi[flips]
    else:
        raise ValueError(f"unknown compilation {compilation!r}")
    psi = _mixer_unitary(n, beta) @ psi
    return float(np.sum(build_cost_operator(g) * np.abs(psi) ** 2))


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
) -> tuple[float, float, float]:
    """Best (gamma, beta) on a dense grid and the approximation ratio there.

    Scans gamma in [0, 2pi) and beta in [0, pi) at the given resolution in
    row-major order, keeping the first maximizer (so ties resolve to the
    lexicographically smallest angles).
    """
    check_grid_resolution(grid_resolution)
    best_val = -math.inf
    best = (0.0, 0.0)
    for i in range(grid_resolution):
        gamma = 2.0 * math.pi * i / grid_resolution
        for j in range(grid_resolution):
            beta = math.pi * j / grid_resolution
            val = simulate_qaoa_p1(g, compilation, seq, gamma, beta, noise)
            if val > best_val:
                best_val = val
                best = (gamma, beta)
    cmax = maxcut_brute_force(g)
    if cmax <= 0:
        raise ValueError("graph has no positive cut; ratio undefined")
    return best[0], best[1], best_val / float(cmax)
