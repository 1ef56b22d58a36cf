"""Qubit stabilizer states in quadratic form, and their exact entropies.

A stabilizer state of n qubits can be written (Dehaene & De Moor, PRA 68,
042318 (2003)) as a flat amplitude over an affine GF(2) subspace with the
sign of a quadratic form:

    |psi> = 2^(-k/2) sum_{u in GF(2)^k} (-1)^Q(u) |x0 + u G>,

with G a k x n generator (a LinearCodeState), x0 a shift and
Q(u) = q0 + sum_i q_ii u_i + sum_{i<j} q_ij u_i u_j. Its entanglement
entropies are integers (bits), read off its n x 2n check matrix
(Fattal et al., quant-ph/0406168; Aaronson & Gottesman, PRA 70, 052328):

    M = [G | Z]    S(A) = rank M_A - |A|,
        [0 | H]

with M_A the X and Z columns of the sites in A. X(g_i) Z(z_i) and Z(h)
stabilise the state when z_i . g_j = beta_ij, beta(u, v) = Q(u+v) + Q(u) +
Q(v) + q0 being Q's alternating bilinear form, and h runs over a basis of
the dual code H = nullspace(G). The group the rows generate has 2^n
elements, and S(A) = |A| - log2 N(A) with N(A) the number supported inside
A; `codes.check_entropy_table` reads every cut at once that way.

A single cut takes the state's graph form instead (`CheckMatrix.graph_rows`,
built from G and beta): S(A) = rank Gamma[A, B] over GF(2), which
`codes.graph_entropy` ranks as |A| rows of n bits. With beta = 0 it is the
code state's graph, which `code_entropy` ranks the same way for p = 2.

`from_statevector` recognises such a state in a dense qubit vector. It reads
(G, x0, Q) from the support and the signs, checks the support and the signs
by doubling, and sums the distance from the described vector without
building that vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Optional

import numpy as np

from .codes import CheckMatrix, LinearCodeState, graph_entropy
from .errors import InvalidCode
from .gf import GfMatrix, rref
from .states import StateVector

# Largest Euclidean distance from the ideal vector at which a dense vector
# is taken as a stabilizer state. By the Fannes-Audenaert inequality every
# dense entropy then lies within 1e-9 of the rank value.
RECOGNITION_TOL = 1e-12

# Amplitudes per chunk of the recognition distance sum, so that no
# temporary as large as the state is held.
DISTANCE_CHUNK = 2**16


@dataclass(frozen=True)
class StabilizerState(CheckMatrix):
    """Amplitude 2^(-k/2) (-1)^Q(u) on the basis state x0 + uG, 0 elsewhere.

    `shift` is x0 as a basis index (site 1 most significant); `q` is the
    k x k upper-triangular 0/1 matrix of Q, its diagonal the linear part;
    `q0` is Q's constant term, a global sign.
    """

    code: LinearCodeState
    shift: int
    q: np.ndarray
    q0: int = 0

    def __post_init__(self):
        k, n = self.code.k, self.code.n
        if self.code.p != 2:
            raise InvalidCode(f"a qubit stabilizer state needs p = 2, not {self.code.p}")
        if not 0 <= self.shift < 1 << n:
            raise InvalidCode(f"shift {self.shift} is not a basis index of {n} qubits")
        q = np.asarray(self.q)
        if q.shape != (k, k) or not np.isin(q, (0, 1)).all() or np.tril(q, -1).any():
            raise InvalidCode(f"Q must be an upper-triangular 0/1 {k} x {k} matrix")
        if self.q0 not in (0, 1):
            raise InvalidCode(f"constant term q0 = {self.q0} is not 0 or 1")

    @property
    def form(self) -> tuple[np.ndarray, np.ndarray]:
        """G and Q's bilinear form beta: symmetric, zero diagonal."""
        q = np.triu(np.asarray(self.q, dtype=np.int64), 1)
        return self.code.gen.a, q + q.T

    @cached_property
    def check_bits(self) -> np.ndarray:
        """[G | Z ; 0 | H]: the code's `check_bits` with Z in the G rows.
        With E G the reduced form of G and p_l its pivots, G P E = I for P
        the pivot selector, so Z = beta E^T P^T."""
        k, n = self.code.k, self.code.n
        beta = self.form[1]
        red, pivots = rref(GfMatrix(np.hstack([self.code.gen.a, np.eye(k, dtype=np.int64)]), 2))
        bits = self.code.check_bits.copy()
        bits[:k, n:][:, pivots] = beta @ red.a[:, n:].T % 2
        return bits

    def amplitudes(self) -> np.ndarray:
        """The dense 2^n vector. Points are built by doubling, like the signs
        (`_signs`): the points of span(g_0..g_j) are those of
        span(g_0..g_{j-1}) and the same plus g_j."""
        k, n = self.code.k, self.code.n
        pts = np.empty(1 << k, dtype=np.int64)
        pts[0] = self.shift
        for j, row in enumerate(self.code.check_rows[:k]):
            np.bitwise_xor(pts[: 1 << j], row >> n, out=pts[1 << j : 2 << j])
        c = 2.0 ** (-k / 2)
        amps = np.zeros(1 << n, dtype=np.float64)
        amps[pts] = np.where(_signs(self.q, self.q0), -c, c)
        return amps


def _signs(q: np.ndarray, q0: int) -> np.ndarray:
    """Whether Q(u) = 1, for every u in GF(2)^k (bit j of the index is u_j),
    built by doubling: for u < 2^j, Q(u + e_j) = Q(u) + q_jj + sum_{i<j}
    q_ij u_i, and that linear term is itself built by doubling over i."""
    q = np.asarray(q).tolist()
    k = len(q)
    neg = np.empty(1 << k, dtype=bool)
    lin = np.empty(max(1 << k >> 1, 1), dtype=bool)
    neg[0] = bool(q0)
    for j in range(k):
        lin[0] = bool(q[j][j])
        for i in range(j):
            np.bitwise_xor(lin[: 1 << i], bool(q[i][j]), out=lin[1 << i : 2 << i])
        np.bitwise_xor(neg[: 1 << j], lin[: 1 << j], out=neg[1 << j : 2 << j])
    return neg


def from_statevector(sv: StateVector) -> Optional[StabilizerState]:
    """The stabilizer form of a dense qubit vector, or None if it has none.

    The support is {|a| > max|a| / 2}; it must have 2^k points. If it is
    x0 + span(r_0..r_{k-1}), x0 its minimum and the r_j reduced (each r_j's
    leading bit set in no other r_i, leading bits rising with j), the point
    at sorted position i is x0 + sum of the r_j over the bits j of i. So the
    basis is read at positions 2^j, and the support is that coset iff each
    doubling holds: positions 2^j..2^(j+1)-1 are positions 0..2^j-1 plus
    r_j (which also makes the r_j independent). A support of all 2^n points
    is read with no index array. Q is read from the signs at x0, x0 + g_i
    and x0 + g_i + g_j.

    The result is accepted only if sv is within RECOGNITION_TOL (Euclidean)
    of the vector it describes, without building that vector. Every support
    point must carry Q's sign: one wrong sign alone is 2^(-k/2) away, far
    above RECOGNITION_TOL. The squared distance is then the sum of
    (|a| - 2^(-k/2))^2 on the support and of a^2 off it (`_distance2`).
    """
    if sv.d != 2:
        return None
    amps, n = sv.amps, sv.n
    half_max = 0.5 * max(amps.max(), -amps.min())
    support = (amps > half_max) | (amps < -half_max)
    size = int(np.count_nonzero(support))
    k = max(size.bit_length() - 1, 0)
    if size != 1 << k:
        return None
    if k == n:
        w, x0, basis = None, 0, [1 << j for j in range(n)]
    else:
        w = np.flatnonzero(support)
        x0 = int(w[0])
        basis = [int(w[1 << j]) ^ x0 for j in range(k)]
        for j, r in enumerate(basis):
            if not np.array_equal(w[1 << j : 2 << j], w[: 1 << j] ^ r):
                return None
    del support
    b = np.array(basis, dtype=np.int64)
    g = b[:, None] >> np.arange(n - 1, -1, -1) & 1
    neg0 = int(amps[x0] < 0)
    single = (amps[x0 ^ b] < 0).astype(np.int64) ^ neg0
    pair = (amps[x0 ^ b[:, None] ^ b[None, :]] < 0).astype(np.int64)
    q = np.triu(pair ^ single[:, None] ^ single[None, :] ^ neg0, 1)
    q[np.diag_indices(k)] = single
    on = amps if w is None else amps[w]
    if not np.array_equal(on < 0, _signs(q, neg0)):
        return None
    if sqrt(_distance2(amps, w, 2.0 ** (-k / 2))) > RECOGNITION_TOL:
        return None
    return StabilizerState(LinearCodeState(2, n, GfMatrix(g, 2)), x0, q, neg0)


def stabilizer_entropy(st: StabilizerState, a_sites) -> int:
    """Entropy in bits across the cut (a_sites | complement), a_sites
    0-based like `code_entropy`: `graph_entropy` of the graph rows."""
    return graph_entropy(st.graph_rows, a_sites)


def _distance2(amps: np.ndarray, w: Optional[np.ndarray], c: float) -> float:
    """Sum of (|a| - c)^2 on the support and of a^2 off it, chunk by chunk.
    The support is the sorted index array w, or every index if w is None.
    The off-support squares are summed from each chunk with its support
    points zeroed, never as a total less the support's share, which would
    cancel away a distance near RECOGNITION_TOL."""
    dist2 = 0.0
    for start in range(0, len(amps), DISTANCE_CHUNK):
        chunk = amps[start : start + DISTANCE_CHUNK]
        if w is None:
            on = chunk
        else:
            lo, hi = np.searchsorted(w, (start, start + len(chunk)))
            pos = w[lo:hi] - start
            on = chunk[pos]
            off = chunk.copy()
            off[pos] = 0.0
            dist2 += float(off @ off)
        dev = np.abs(on)
        dev -= c
        dist2 += float(dev @ dev)
    return dist2
