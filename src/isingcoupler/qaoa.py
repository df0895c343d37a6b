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
  Ising phase diagonals do.  So one pass over the circuit acts on one stack
  of all G gammas' density matrices at once (stored as below); every other
  op is the same for all of them.  The stack holds only the columns the
  readout reads (below), G 2^(n-1) K entries for K of the 2^n columns.  A
  call holds only what ``_simulation_bytes`` counts, and nothing after it
  returns; one that the count puts over MAX_SIMULATION_BYTES is refused
  before anything is built.
- The readout (below) takes two numbers per gamma from the stack, each a
  sum over the edges of two-qubit correlators, and two per beta; the whole
  grid is one (G, 2) @ (2, B) product.

An ms sequence is checked with ``pulses.verify`` once per call.

The cost layer evolves each density matrix in the coordinates
rho^[x, k] = rho[x, x ^ k], and every op of either compilation keeps k:

- A diagonal phase D = diag(exp(-i phi)) multiplies rho^[x, k] by
  exp(-i (phi(x) - phi(x ^ k))).
- Conjugation by X_a shifts x alone: rho^[x, k] -> rho^[x ^ a, k], one row of
  contiguous entries to another.
- Conjugation by Z_b multiplies rho^[x, k] by (-1)^(b.k): a factor that
  depends on k alone.

Every channel of the model is a Pauli channel, so it splits the same way.
Where k is 0 on a qubit set S, depolarizing S at rate lam maps rho^[x, k]
to (1-lam) rho^[x, k] + lam times the mean of rho^[x ^ a, k] over the masks
a on S; elsewhere it is the factor 1-lam.
Minor noise on qubit q at rate r is the x-mixing
rho^[x] -> (1-r/2) rho^[x] + (r/2) rho^[x ^ e_q] where k_q = 0 and the
factor (1-r)(1-2r) where k_q = 1.

Four identities of the model then cut the work:

- The Z-type factors depend on k alone and commute with every other op, so
  they collect in one real vector sigma[k], which the readout applies.
- Both layers commute with conjugation by X^n (the initial state, every
  phase difference and every channel do), so rho^[~x, k] = rho^[x, k].
  Only the rows x with bit n-1 clear are stored: a (G, 2^(n-1), K) half
  stack over K columns k (the last identity).  A shift on qubit n-1 reads
  that half reversed, since x ^ e_(n-1) is stored as x ^ (2^(n-1) - 1).
- c mixings on one qubit with no phase between them are one mixing at
  weight (1 - (1-r)^c)/2, and on the uniform initial state a mixing changes
  nothing.
- No op changes k, and each weight, phase difference and Z-type factor of
  column k reads k alone, so every column evolves independently of the
  others.  The layers evolve only the sorted columns they are given, and a
  simulation gives them the readout's: e_u, e_v and e_u ^ e_v of every
  edge (``_readout_columns``), K <= n(n+1)/2 of the 2^n.  Column 0, the
  diagonal, is not among them: the cost layer is diagonal and every
  channel is unital, so the diagonal stays uniform.

The Walsh coefficients F[f, k] = sum over all x of (-1)^(f.x) rho^[x, k]
of a column make every x-mixing diagonal.  The X^n symmetry makes F vanish
at odd-weight f, and at an even f it is twice the stored rows' coefficient

    R[f', k] = sum over the stored x of (-1)^(f'.x) rho^[x, k],

where f' is the low n-1 bits of f (bit n-1 of f is the parity of f').  R
keeps the half stack's (G, 2^(n-1), K) shape, and ``_walsh`` computes it
from the stored rows by one butterfly stage per qubit below n-1.  In R:

- the x-mixing on qubit q at weight w multiplies R[f', k] by 1 - 2 w f_q,
  f_q being bit q of f;
- depolarizing S at rate lam, where k is 0 on S, multiplies it by 1 - lam
  where f is nonzero on S (the mean over the masks a on S keeps f = 0
  there);
- multiplying rho^[x, k] by (-1)^(g.x), for an even-weight g, moves
  R[f', k] to R[f' ^ g', k], with g' the low n-1 bits of g.

A cx edge is taken in Heisenberg form.  CNOT Rz_v(-gamma z) CNOT is the
diagonal exp(i gamma z/2 Z_u Z_v), whose phase differences are 0 or
+-gamma z, and the minor noise on the rotation, conjugated through the
CNOT, is the Pauli channel {I, X_v, Z_u Z_v, Z_u Y_v} with the same weights:
an x-mixing on e_v where k_u = k_v, and the factor (1-r)(1-2r) elsewhere.
So no CNOT is simulated, and the edge's phase (where k_u != k_v) and noise
(where k_u = k_v) act on disjoint k.  Depolarizing on S commutes with every
unitary and unital channel that acts only within S, and j of them at rate
lam make one at rate 1-(1-lam)^j: an edge's two Dep(u, v) apply as one
after it, and the L full-register Dep of an ms layer as one at its end,
where it scales every column k != 0 and leaves the uniform diagonal.

The cx layer evolves R, which starts as 1/2 at f' = 0 and 0 elsewhere (the
uniform initial state).  Each edge is one real multiply and one pairing:

- its noise multiplies R[f', k] by (1 - r f_v)(1 - (1 - keep)[f_u or f_v])
  where k_u = k_v, keep = (1-lam)^2 being the merged Dep(u, v), which acts
  only where k_u = k_v = 0 (the first edge's noise meets R at f' = 0
  alone, where it is 1, and is skipped);
- its phase exp(i gamma z s(x)), s(x) = (-1)^(x_u ^ x_v), is
  cos(gamma z) + i s(x) sin(gamma z), so where k_u != k_v
  R[f'] <- cos(gamma z) R[f'] + i sin(gamma z) R[f' ^ g'],
  g' = (e_u ^ e_v) mod 2^(n-1).

The ms flips are not simulated as gates.  A row with flip mask m is, in
time order, X_m then minor noise M on the qubits of m, the Ising phase D,
full depolarizing Dep, and X_m then M again.  M commutes with X_m (the
depolarizing part commutes with every single-qubit unitary, and the phase
flip's Z anticommutes with X), and Dep on all n qubits commutes with every
unitary, so X_m M D Dep X_m M = M D_m Dep M, where D_m = X_m D X_m is the
Ising phase at the energies E(x ^ m).  With the Deps moved to the end of
the layer (above), the M after one row and the M before the next meet with
no phase between them, so the flips between two rows form one round: round
i holds, per qubit, the flips of row i-1 and of row i on it (0, 1 or 2),
applied before row i's phase as one fused mixing per qubit.  Of the L+1
rounds of L rows, round 0 acts on the uniform initial state and is skipped,
and round L follows the last phase.  This is an exact identity of the
model: every noisy flip is still applied, as often as before.  It is not a
merged-flip model, which would charge fewer flips by sharing them between
consecutive rows and so change the noise.

The ms layer evolves the stored rows, whose Ising phases are not diagonal
in R, and takes R by one ``_walsh`` pass at its end.  Its tables are built
once per layer: every row's phase lookup table in one exp, and the codes
(E(x) - E(x ^ k))/2 for every x at the evolved columns k, from which each
row reads the rows x ^ m of the stored x.

The readout reads R and sigma directly.  The cost is
C' = sum_e z (1 - Z_u Z_v)/2.  After the mixer U = prod_q exp(-i beta X_q),
the minor noise and the measurement flip scale each Z by f = (1-r)(1-2r)
(its depolarizing part by 1-r, the phase flip not at all, the bit flip by
1-2r), and U^dag Z U = cos 2beta Z + sin 2beta Y.  So with c = cos 2beta
and s = sin 2beta,

    E(gamma, beta) = sum_e z/2 (1 - f^2 <(c Z_u + s Y_u)(c Z_v + s Y_v)>)
                   = sum_e z/2 (1 - f^2 (c s <Z_u Y_v + Y_u Z_v> + s^2 <Y_u Y_v>)),

as <Z_u Z_v> reads the diagonal, which is uniform, and so is 0.  A Pauli
string P with P|x> = p(x) |x ^ m> has <P> = sum_x p(x) rho^[x, m].
Z_u Y_v, Y_u Z_v and Y_u Y_v have m = e_v, e_u and e_u ^ e_v and p = i t,
i t and -t, where t(x) = (-1)^(x_u ^ x_v).  Since t(~x) = t(x), each sum
over x is twice the t-weighted sum S[k] of the stored rows of column k,
times sigma[k].  On the stored rows (bit n-1 clear) t(x) = (-1)^(g'.x),
so S[k] = R[g', k], g' = (e_u ^ e_v) mod 2^(n-1), and the readout gathers
each edge's three entries:

- <Z_u Y_v> + <Y_u Z_v> is -Im(S[e_v] + S[e_u]), as the sum is real;
- <Y_u Y_v> is -Re S[e_u ^ e_v].

A grid scan needs only the gammas up to pi when the layer is 2pi-periodic
in gamma, by two identities of the model:

- rho(-gamma) = conj rho(gamma): the initial state and every channel are
  real, and only the phases depend on gamma.  So R, a real combination of
  the rows, and S[k] turn into their conjugates, which flips the sign of
  the ZY + YZ term alone.
- beta -> pi - beta keeps c and flips the sign of s, and so of the cs term
  alone.

So E(-gamma, beta) = E(gamma, pi-beta), and E(gamma, pi) = E(gamma, 0).
The layer is 2pi-periodic when every cx edge weight z is an integer
(gamma -> gamma + 2pi multiplies Rz(-gamma z) by the global sign (-1)^z),
or every ms row strength w is (two basis states' Ising phases differ by
gamma w dE/2, and dE/2 is an integer).  Otherwise the scan takes every
gamma: a strength of 3/2 or -1/4 does break the symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, integer_units
from .pulses import PulseSequence, verify

MAX_BRUTE_FORCE_N = 20
# Safety cap on the bytes one simulation call allocates, as
# ``_simulation_bytes`` counts them before anything is built.
MAX_SIMULATION_BYTES = 1 << 30
CX = "cx"
MS = "ms"
# Grid values within this fraction of max(1, C_max) of the maximum are ties:
# exact ties (every gamma=0 point, for one) differ only by float rounding.
TIE_TOLERANCE = 1e-9
# Points per angle in ``optimize_angles``' scan, unless the caller says.
DEFAULT_GRID_RESOLUTION = 32


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


def _bits(values: np.ndarray, n: int) -> np.ndarray:
    """Row q holds bit q of each of the values, all below 2^n: an
    (n, len(values)) uint8 array, shifted in uint32."""
    bits = values.astype(np.uint32) >> np.arange(n, dtype=np.uint32)[:, None]
    bits &= 1
    return bits.astype(np.uint8)


def _edge_table(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per edge, in the order of g.edges: the endpoints u and v, as int64
    arrays, the weight z as a float, and the stored Walsh index
    g' = (e_u ^ e_v) mod 2^(n-1) of its parity (-1)^(x_u ^ x_v) (module
    docstring)."""
    u, v = np.array([(a, b) for a, b, _ in g.edges], dtype=np.int64).reshape(-1, 2).T
    z = np.array([float(w) for _, _, w in g.edges])
    return u, v, z, (1 << u ^ 1 << v) & ((1 << (g.n - 1)) - 1)


def maxcut_brute_force(g: Graph) -> Fraction:
    """Exact Max-Cut value by scanning every cut: the weights, as integers,
    times the (E, 2^(n-1)) matrix of which masks x cut each edge, one byte
    an entry.  x and its complement cut the same edges, so x runs over the
    masks with bit n-1 clear.  No weight is rounded to a float."""
    if g.n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"n={g.n} too large (limit {MAX_BRUTE_FORCE_N})")
    weights, denom = integer_units([z for _, _, z in g.edges])
    # int64 holds every cut sum while the absolute weights sum below 2^63;
    # beyond that the sums are Python integers
    dtype = np.int64 if sum(map(abs, weights)) < 1 << 63 else object
    bits = _bits(np.arange(1 << (g.n - 1)), g.n)
    cut = bits[[u for u, _, _ in g.edges]] ^ bits[[v for _, v, _ in g.edges]]
    cuts = np.einsum("ex,e->x", cut, np.array(weights, dtype=dtype))
    return Fraction(int(cuts.max()), denom)


def _check_float_range(g: Graph, compilation: str, seq: PulseSequence | None) -> None:
    """Raise ValueError unless the absolute edge weights, and for ms the
    absolute row strengths, sum to a float64: the simulation runs in
    float64, and every cut value then stays finite."""
    groups = [[z for _, _, z in g.edges], seq.strengths if compilation == MS else ()]
    try:
        for values in groups:  # the exact sum rounded once, as float() of a Fraction
            ints, denom = integer_units(values)
            sum(map(abs, ints)) / denom
    except OverflowError:
        raise ValueError("weights beyond float64 range: the simulation runs in float64") from None


def apply_depolarizing(rho: np.ndarray, qubits, lam: float, n: int) -> np.ndarray:
    """rho -> (1-lam) rho + lam * (maximally mixed on qubits (x) the partial
    trace of rho over them).

    rho is one density matrix or a stack (..., 2^n, 2^n) of them; the input
    is never modified.  This is the module docstring's rule on the qubit set
    S, entry by entry: the mixed term is 0 at (x, y) where x and y differ on
    S, and elsewhere the partial trace at their bits off S, divided by 2^|S|.
    """
    qubits = set(qubits)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing rate must be in [0, 1]")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    if lam == 0.0 or not qubits:
        return rho
    s = sum(1 << int(q) for q in qubits)
    x = np.arange(1 << n)
    off, on = x[x & s == 0], x[x & ~s == 0]
    trace = sum(rho[..., off | a, :][..., off | a] for a in on) / len(on)
    i = np.searchsorted(off, x & ~s)
    return (1.0 - lam) * rho + lam * np.where((x[:, None] ^ x) & s, 0.0, trace[..., i[:, None], i])


def _ising_codes(n: int, columns: np.ndarray) -> np.ndarray:
    """c(x, k) + n^2 // 4 for every x and each of the given columns k, a
    (2^n, K) uint8 array, where 2 c(x, k) = E(x) - E(x ^ k) for the Ising
    energies E(x) = sum_{i<j} z_i z_j, z_i = +-1 from bit i.  With
    s = n - 2 popcount(x), 2E = s^2 - n, and every s^2 is n^2 mod 4, so
    c(x, k) = q(x) - q(x ^ k) for q = s^2 // 4 in [0, n^2 // 4], and every
    code lies in [0, 2 (n^2 // 4)], which uint8 holds up to n = 22."""
    x = np.arange(1 << n)
    by_popcount = np.array([(n - 2 * c) ** 2 // 4 for c in range(n + 1)], dtype=np.uint8)
    q = by_popcount[np.bitwise_count(x)]
    codes = n * n // 4 - q[x[:, None] ^ columns]
    codes += q[:, None]
    return codes


def _partners(rho: np.ndarray, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (a, b) of a stored half stack that pair each stored row x with
    the stored row of x ^ e_q, each pair once.  x ^ e_(n-1) is stored as its
    complement x ^ (2^(n-1) - 1), so for q = n-1 b is the stack reversed."""
    if q == n - 1:
        half = rho.shape[1] // 2
        return rho[:, :half], rho[:, ::-1][:, :half]
    t = rho.reshape(len(rho), rho.shape[1] >> (q + 1), 2, 1 << q, rho.shape[2])
    return t[:, :, 0], t[:, :, 1]


def _mix(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> None:
    """rho[x, k] -> (1 - w[k]) rho[x, k] + w[k] rho[x ^ e_q, k], in place on a
    stored half stack through its partner views (a, b) on qubit q."""
    shift = b - a
    shift *= weights
    a += shift
    b -= shift


def _walsh(rho: np.ndarray, n: int) -> np.ndarray:
    """A stored half stack's Walsh coefficients, in place:
    R[f', k] = sum over the stored x of (-1)^(f'.x) rho[x, k], by one
    butterfly stage per qubit below n-1."""
    for q in range(n - 1):
        a, b = _partners(rho, q, n)
        diff = a - b
        a += b
        b[...] = diff
    return rho


def _readout_columns(g: Graph) -> np.ndarray:
    """The sorted columns k that the readout reads: e_u, e_v and e_u ^ e_v
    of every edge."""
    columns = set()
    for u, v, _ in g.edges:
        columns |= {1 << u, 1 << v, (1 << u) | (1 << v)}
    return np.array(sorted(columns), dtype=np.int64)


def _cx_layer(g: Graph, gammas: np.ndarray, noise: NoiseSpec, columns: np.ndarray):
    """(R, sigma) after the noisy cx cost layer at each gamma: the Walsh
    coefficients of the stored half stack at the given sorted columns k, and
    the Z-type factor it still owes there (module docstring)."""
    n = g.n
    half = 1 << (n - 1)
    # |+...+><+...+| has every entry 2^-n: 1/2 summed over the stored rows
    walsh = np.zeros((len(gammas), half, len(columns)), dtype=complex)
    walsh[:, 0] = 0.5
    u, v, z, pair = _edge_table(g)
    bits = _bits(columns, n)
    # bit q of the even-weight f of each stored Walsh index f': its low n-1
    # bits are f', and bit n-1 is their parity
    fbits = _bits(np.arange(half), n)
    fbits[n - 1] = np.bitwise_xor.reduce(fbits, axis=0)
    odd = bits[u] ^ bits[v]  # (E, K): where each edge's phase acts
    touched = bits[u] | bits[v]
    r = noise.minor_rate
    keep = (1.0 - noise.major_rate) ** 2  # an edge's two Dep(u, v), merged
    # An edge's noise multiplies R[f', k] by factor[f class, k class]: the
    # f class is f_v + (f_u | f_v), the k class 0 where k_u != k_v, 1 where
    # k_u = k_v = 1 (the minor channel alone) and 2 where k_u = k_v = 0.
    factor = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, keep], [1.0, 1.0 - r, (1.0 - r) * keep]])
    f_class = fbits[v] + (fbits[u] | fbits[v])
    k_class = 2 - odd - touched
    # CNOT Rz_v(-gamma z) CNOT = exp(i gamma z/2 Z_u Z_v) multiplies entry
    # (x, k) by cos(gamma z) + i s(x) sin(gamma z) where k_u != k_v,
    # s(x) = (-1)^(x_u ^ x_v), which pairs R[f'] with R[f' ^ g']
    angles = np.multiply.outer(z, gammas)
    cos = np.where(odd[:, None], np.cos(angles)[:, :, None], 1.0)
    isin = 1j * np.where(odd[:, None], np.sin(angles)[:, :, None], 0.0)
    partners = np.arange(half) ^ pair[:, None]
    paired = np.empty_like(walsh)
    for e in range(len(z)):
        # on the first edge R is 0 off f' = 0, where every factor is 1
        if e and (r or keep != 1.0):
            walsh *= factor[f_class[e][:, None], k_class[e]]
        # every index is in range: mode "clip" only spares take a buffered copy
        np.take(walsh, partners[e], axis=1, out=paired, mode="clip")
        paired *= isin[e][:, None]
        walsh *= cos[e][:, None]
        walsh += paired
    sigma = ((1.0 - r) * (1.0 - 2.0 * r)) ** odd.sum(axis=0) * keep ** touched.sum(axis=0)
    return walsh, sigma


def _ms_layer(seq: PulseSequence, gammas: np.ndarray, noise: NoiseSpec, columns: np.ndarray):
    """(R, sigma) after the noisy ms cost layer at each gamma, as
    ``_cx_layer`` returns them."""
    n = seq.n
    # |+...+><+...+| has every entry 2^-n
    rho = np.full((len(gammas), 1 << (n - 1), len(columns)), 1.0 / (1 << n), dtype=complex)
    bits = _bits(columns, n)
    stored = np.arange(rho.shape[1])
    levels = np.arange(-(n * n // 4), n * n // 4 + 1)
    r = noise.minor_rate
    # Each row's Ising phase, at the energies E(x ^ mask), is lut[i] read at
    # the codes of the rows x ^ mask; c fused minor channels mix qubit q at
    # mixing[c, q].
    strengths = np.array([float(w) for w in seq.strengths])
    lut = np.exp(1j * np.multiply.outer(np.multiply.outer(strengths, gammas), levels))
    codes = _ising_codes(n, columns)
    mixing = np.multiply.outer([0.0] + [(1.0 - (1.0 - r) ** c) / 2.0 for c in (1, 2)],
                               1 - bits).astype(complex)  # so ``_mix`` casts nothing
    # Round i holds, per qubit, the minor channels of the flips after row i-1
    # and before row i (module docstring).
    rounds = [[(a >> q & 1) + (b >> q & 1) for q in range(n)]
              for a, b in zip((0, *seq.rows), (*seq.rows, 0))]
    partners = [_partners(rho, q, n) for q in range(n)]
    for i, counts in enumerate(rounds):
        if i and r:  # round 0 mixes the uniform initial state, which changes nothing
            for q, c in enumerate(counts):
                if c:
                    _mix(*partners[q], mixing[c, q])
        if i < len(seq.rows):
            rho *= np.take(lut[i], codes[stored ^ seq.rows[i]], axis=1)
    # Dep on all n qubits scales every column k != 0 and leaves the uniform
    # diagonal (k = 0); the L rows' depolarizings apply as one at the end.
    keep = (1.0 - noise.major_rate) ** len(seq.rows)
    minor_count = np.sum(rounds, axis=0) @ bits
    sigma = ((1.0 - r) * (1.0 - 2.0 * r)) ** minor_count * np.where(bits.any(axis=0), keep, 1.0)
    return _walsh(rho, n), sigma


def _correlators(g: Graph, walsh: np.ndarray, sigma: np.ndarray,
                 columns: np.ndarray) -> np.ndarray:
    """(G, 2): the sums over the edges of z (<Z_u Y_v> + <Y_u Z_v>) and
    z <Y_u Y_v> on the states whose stored Walsh coefficients are walsh, at
    the sorted columns k, and whose Z-type factor sigma is not yet applied
    (module docstring)."""
    u, v, z, pair = _edge_table(g)
    k = np.stack([1 << v, 1 << u, (1 << u) | (1 << v)], axis=1)
    cols = np.searchsorted(columns, k)  # each k's position in the stack
    # the stored rows are half of the sum over x
    zy, yz, yy = 2.0 * np.einsum("gej,ej->jg", walsh[:, pair[:, None], cols],
                                 z[:, None] * sigma[cols])
    return np.stack([-(zy + yz).imag, -yy.real], axis=1)


def check_angles(values) -> np.ndarray:
    """values (a float or a 1-D sequence) as a 1-D array, or raise
    ValueError when it has another shape, no entry or a non-finite entry."""
    angles = np.atleast_1d(np.asarray(values, dtype=float))
    if angles.ndim != 1:
        raise ValueError("angles must be floats or 1-D sequences")
    if not angles.size:
        raise ValueError("angles must not be empty")
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    return angles


def _simulation_bytes(n: int, width: int, count_g: int, count_b: int) -> int:
    """The bytes a simulation of G gammas and B betas at n qubits holds at
    most when its layers evolve K = width columns.  Per stored row, in
    16-byte units: 4 G K for four (G, 2^(n-1), K) complex stacks (the
    evolved stack, a phase factor or a partner copy as large, and the
    mixings' temporaries); 2 K for the int64 index and the codes of
    ``_ising_codes``, or the cx layer's per-edge tables (E < K); and n for
    the cx layer's uint8 Walsh-index bits with their uint32 temporary (5 n
    bytes a row), or ``_ising_codes``'s 2^n-entry tables.  Then 64 bytes
    per entry of the readout's (G + 1, B) float arrays, and 64 KiB for the
    arrays that do not grow with n."""
    return (16 * (1 << (n - 1)) * (width * (4 * count_g + 2) + n)
            + 64 * count_b * (count_g + 1) + (64 << 10))


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
    columns = _readout_columns(g)
    if _simulation_bytes(n, len(columns), len(gammas), len(betas)) > MAX_SIMULATION_BYTES:
        raise ValueError(f"n={n} with {len(gammas)} gammas and {len(betas)} betas needs more "
                         f"than the {MAX_SIMULATION_BYTES >> 30} GiB simulation limit")
    rho, sigma = (_cx_layer(g, gammas, noise, columns) if compilation == CX
                  else _ms_layer(seq, gammas, noise, columns))
    c, s = np.cos(2.0 * betas), np.sin(2.0 * betas)
    f = (1.0 - noise.minor_rate) * (1.0 - 2.0 * noise.minor_rate)
    total = sum(float(z) for _, _, z in g.edges)
    correlators = _correlators(g, rho, sigma, columns)
    values = (total - f * f * correlators @ np.array([c * s, s * s])) / 2.0
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
    grid_resolution: int = DEFAULT_GRID_RESOLUTION,
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
    steps = np.arange(grid_resolution)
    gammas = 2.0 * math.pi * steps / grid_resolution
    betas = math.pi * steps / grid_resolution
    if _periodic_layer(g, compilation, seq):
        gammas = gammas[: grid_resolution // 2 + 1]
    values = simulate_qaoa_p1(g, compilation, seq, gammas, betas, noise)
    # the cut scans 2^(n-1) masks, so it follows the simulation's size check
    cut = maxcut_brute_force(g)
    if cut <= 0:
        raise ValueError("graph has no positive cut; ratio undefined")
    # no overflow (simulate_qaoa_p1 checked the weight sum), but a tiny cut rounds to 0
    cmax = float(cut)
    if cmax <= 0:
        raise ValueError("maximum cut underflows float64; ratio undefined")
    near_max = values >= values.max() - TIE_TOLERANCE * max(1.0, cmax)
    i, j = divmod(int(np.flatnonzero(near_max)[0]), grid_resolution)
    value = float(values[i, j])
    return float(gammas[i]), float(betas[j]), value, value / cmax
