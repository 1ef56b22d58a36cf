"""Dense state vectors and the catalog of explicit AME states.

Basis convention (fixed package-wide): basis index i encodes the site values
(s_1, ..., s_n) big-endian in base d, s_1 most significant, i.e.
i = sum_j s_j d^(n-j). All catalog amplitudes are integers times one final
scale factor, so sign patterns are bit-exact in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized

NORM_TOL = 1e-9
# Largest dense vector (d^n amplitudes) the package builds, loads or
# contracts into.
DENSE_BUDGET = 2**26


def digits_of(i: int, n: int, d: int) -> tuple[int, ...]:
    """Big-endian base-d digits (s_1, ..., s_n) of basis index i."""
    return tuple((i // d ** (n - j)) % d for j in range(1, n + 1))


def index_of(digits, d: int) -> int:
    """Basis index of a digit tuple (s_1 most significant)."""
    i = 0
    for s in digits:
        i = i * d + int(s)
    return i


@dataclass(frozen=True)
class StateVector:
    """Dense normalized state of n qudits of local dimension d."""

    n: int
    d: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (self.d**self.n,):
            raise ValueError(
                f"expected {self.d**self.n} amplitudes, got {self.amps.shape}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def check_normalized(self, tol: float = NORM_TOL) -> None:
        if abs(self.norm - 1.0) > tol:
            raise NotNormalized(f"norm {self.norm} differs from 1 beyond {tol}")

    def amplitude(self, digits) -> float:
        return float(self.amps[index_of(digits, self.d)])

    def support_size(self, tol: float = 0.0) -> int:
        return int(np.count_nonzero(np.abs(self.amps) > tol))


def normalized(n: int, d: int, coeffs) -> StateVector:
    """StateVector from an unnormalized coefficient array (single final scale)."""
    arr = np.asarray(coeffs, dtype=np.float64)
    nrm = np.linalg.norm(arr)
    if nrm == 0:
        raise ValueError("zero coefficient array")
    return StateVector(n, d, arr / nrm)


# Sign table of the 5-qubit perfect state in computational-basis order
# (index = binary s_1...s_5). All 32 amplitudes are +-1/sqrt(32).
AME52_TABLE_SIGNS = (
    +1, +1, +1, +1, +1, -1, -1, +1, +1, -1, -1, +1, +1, +1, +1, +1,
    +1, +1, -1, -1, +1, -1, +1, -1, -1, +1, -1, +1, -1, -1, +1, +1,
)

# Sign list of the 6-qubit perfect state (index = binary s_1...s_6),
# amplitudes +-1/8.
AME62_SIGNS = (
    -1, -1, -1, +1, -1, +1, +1, +1,
    -1, -1, -1, +1, +1, -1, -1, -1,
    -1, -1, +1, -1, -1, +1, -1, -1,
    +1, +1, -1, +1, -1, +1, -1, -1,
    -1, +1, -1, -1, -1, -1, +1, -1,
    +1, -1, +1, +1, -1, -1, +1, -1,
    +1, -1, -1, -1, +1, +1, +1, -1,
    +1, -1, -1, -1, -1, -1, -1, +1,
)


def ame52_table1() -> StateVector:
    """The tabulated AME(5,2) state: 32 amplitudes +-1/sqrt(32)."""
    return normalized(5, 2, AME52_TABLE_SIGNS)


def ame52_rotinv() -> StateVector:
    """The cyclically invariant AME(5,2): support on even-parity bit strings,
    amplitude (-1)^(sum_j s_j s_{j+1}) / 4 with s_6 = s_1."""
    coeffs = np.zeros(32, dtype=np.float64)
    for i in range(32):
        s = digits_of(i, 5, 2)
        if sum(s) % 2 == 0:
            eta = sum(s[j] * s[(j + 1) % 5] for j in range(5))
            coeffs[i] = (-1) ** eta
    return normalized(5, 2, coeffs)


def ame62() -> StateVector:
    """The 6-qubit perfect state: 64 amplitudes +-1/8 with the sign list above."""
    return normalized(6, 2, AME62_SIGNS)


def ame43() -> StateVector:
    """AME of 4 qutrits: uniform weight on |i, j, i+j, i+2j> (mod 3),
    i, j in {0,1,2}; 9 amplitudes of 1/3."""
    coeffs = np.zeros(81, dtype=np.float64)
    for i in range(3):
        for j in range(3):
            coeffs[index_of((i, j, (i + j) % 3, (i + 2 * j) % 3), 3)] = 1
    return normalized(4, 3, coeffs)


def ghz(n: int, d: int = 2) -> StateVector:
    """GHZ state (|0...0> + |1...1> + ... + |d-1...d-1>)/sqrt(d); the standard
    non-AME control for n >= 4."""
    coeffs = np.zeros(d**n, dtype=np.float64)
    for s in range(d):
        coeffs[index_of((s,) * n, d)] = 1
    return normalized(n, d, coeffs)


def cyclic_shift(sv: StateVector, k: int) -> StateVector:
    """Relabel sites cyclically by k: site j takes the value previously at
    site j+k (indices mod n). Norm and amplitude multiset are preserved."""
    k %= sv.n
    if k == 0:
        return sv
    t = sv.amps.reshape((sv.d,) * sv.n)
    perm = tuple(range(k, sv.n)) + tuple(range(k))
    return StateVector(sv.n, sv.d, np.ascontiguousarray(t.transpose(perm)).reshape(-1))


CATALOG = {
    "ame52_table1": ame52_table1,
    "ame52_rotinv": ame52_rotinv,
    "ame62": ame62,
    "ame43": ame43,
}
