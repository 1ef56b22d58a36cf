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
the dual code H = nullspace(G). The rank is `codes.check_entropy` of M's rows
as 2n-bit ints (X bits above Z bits), each ANDed with A's mask. The G and H
rows with Z = 0 are the code state's own check rows, which `code_entropy`
ranks the same way for p = 2; beta = 0 gives that code state back.

`from_statevector` recognises such a state in a dense qubit vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .codes import LinearCodeState, check_entropy, cut_mask
from .errors import InvalidCode
from .gf import GfMatrix, pack_rows, rref
from .states import StateVector

# Largest Euclidean distance from the ideal vector at which a dense vector
# is taken as a stabilizer state. By the Fannes-Audenaert inequality every
# dense entropy then lies within 1e-9 of the rank value.
RECOGNITION_TOL = 1e-12


@dataclass(frozen=True)
class StabilizerState:
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

    @cached_property
    def check_rows(self) -> list[int]:
        """Rows of the check matrix [G | Z ; 0 | H] as 2n-bit ints: the code's
        check rows with Z added to the G rows. With E G the reduced form of G
        and p_l its pivots, G P E = I for P the pivot selector, so
        Z = beta E^T P^T."""
        k, n = self.code.k, self.code.n
        q = np.asarray(self.q, dtype=np.int64)
        beta = np.triu(q, 1) + np.triu(q, 1).T
        red, pivots = rref(GfMatrix(np.hstack([self.code.gen.a, np.eye(k, dtype=np.int64)]), 2))
        z = np.zeros((k, n), dtype=np.int64)
        z[:, pivots] = beta @ red.a[:, n:].T % 2
        rows = self.code.check_rows
        return [x | zx for x, zx in zip(rows, pack_rows(z))] + rows[k:]

    def amplitudes(self) -> np.ndarray:
        """The dense 2^n vector. Points and signs are built by doubling: the
        points of span(g_0..g_j) are those of span(g_0..g_{j-1}) and the same
        plus g_j, where Q changes by q_jj + sum_{i<j} q_ij u_i."""
        k, n = self.code.k, self.code.n
        q = np.asarray(self.q)
        pts = np.empty(1 << k, dtype=np.int64)
        neg = np.empty(1 << k, dtype=bool)
        pts[0], neg[0] = self.shift, bool(self.q0)
        for j, row in enumerate(self.code.check_rows[:k]):
            half = 1 << j
            cross = sum(1 << i for i in range(j) if q[i, j])
            pts[half : 2 * half] = pts[:half] ^ (row >> n)
            flip = _parity(np.arange(half, dtype=np.int64) & cross).astype(bool)
            neg[half : 2 * half] = neg[:half] ^ flip ^ bool(q[j, j])
        amps = np.zeros(1 << n, dtype=np.float64)
        amps[pts] = 2.0 ** (-k / 2)
        amps[pts[neg]] *= -1
        return amps


def _parity(x: np.ndarray) -> np.ndarray:
    """Bit parity of non-negative int64 entries, by XOR-folding."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def from_statevector(sv: StateVector) -> Optional[StabilizerState]:
    """The stabilizer form of a dense qubit vector, or None if it has none.

    The support is {|a| > max|a| / 2}; it must have 2^k points. If it is
    x0 + span(r_0..r_{k-1}), x0 its minimum and the r_j reduced (each r_j's
    leading bit set in no other r_i, leading bits rising with j), the point
    at sorted position i is x0 + sum of the r_j over the bits j of i. So the
    basis is read at positions 2^j, and a support whose r_j do not rise has
    no such form. Q is read from the signs at x0, x0 + g_i and x0 + g_i + g_j.
    The result is accepted only if sv is within RECOGNITION_TOL (Euclidean)
    of the ideal vector it describes, which checks the support and Q on every
    point.
    """
    if sv.d != 2:
        return None
    amps, n = sv.amps, sv.n
    half_max = 0.5 * max(amps.max(), -amps.min())
    w = np.flatnonzero((amps > half_max) | (amps < -half_max))
    k = max(w.size.bit_length() - 1, 0)
    if w.size != 1 << k:
        return None
    x0 = int(w[0])
    basis = [int(w[1 << j]) ^ x0 for j in range(k)]
    del w
    tops = [r.bit_length() for r in basis]
    if any(lo >= hi for lo, hi in zip(tops, tops[1:])):
        return None
    b = np.array(basis, dtype=np.int64)
    g = b[:, None] >> np.arange(n - 1, -1, -1) & 1
    neg0 = int(amps[x0] < 0)
    single = (amps[x0 ^ b] < 0).astype(np.int64) ^ neg0
    pair = (amps[x0 ^ b[:, None] ^ b[None, :]] < 0).astype(np.int64)
    q = np.triu(pair ^ single[:, None] ^ single[None, :] ^ neg0, 1)
    q[np.diag_indices(k)] = single
    st = StabilizerState(LinearCodeState(2, n, GfMatrix(g, 2)), x0, q, neg0)
    ideal = st.amplitudes()
    ideal -= amps
    return st if np.linalg.norm(ideal) <= RECOGNITION_TOL else None


def stabilizer_entropy(st: StabilizerState, a_sites) -> int:
    """Entropy in bits across the cut (a_sites | complement), a_sites
    0-based like `code_entropy`: `check_entropy` of the check rows."""
    n = st.code.n
    return check_entropy(st.check_rows, n, cut_mask(n, a_sites))
