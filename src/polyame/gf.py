"""Exact linear algebra over prime fields GF(p).

Matrices hold int64 entries reduced mod p. Elimination runs on rows of
Python ints, with inverses from pow(a, -1, p); GF(2) ranks run on rows
bit-packed into single ints. Everything is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPrime


def is_prime(p: int) -> bool:
    """Trial division; inputs here are tiny."""
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


class GfMatrix:
    """A rows x cols matrix over GF(p), stored as an int64 numpy array.

    Values are reduced mod p at construction; instances are treated as
    immutable (the underlying array is write-protected).
    """

    def __init__(self, entries, p: int):
        if not is_prime(p):
            raise NotPrime(f"modulus {p} is not prime")
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        arr = np.mod(arr, p)
        arr.flags.writeable = False
        self.a = arr
        self.p = p

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GfMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self) -> str:
        return f"GfMatrix({self.a.tolist()}, p={self.p})"


def eliminate(rows: list, p: int, ncols: int) -> list[int]:
    """Gauss-Jordan elimination mod p of a list of int rows, in place;
    returns the pivot columns.

    First-nonzero pivoting, so the reduced form is canonical regardless of
    input row order. Entries of `rows` are replaced by new lists, never
    mutated, so callers may pass shared or immutable rows. Stops once every
    row holds a pivot.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], -1, p)
        pivot = rows[r] = [x * inv % p for x in rows[r]]
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                rows[j] = [(x - f * y) % p for x, y in zip(row, pivot)]
        pivots.append(c)
        r += 1
    return pivots


def rank2(vectors, limit: int, mask: int = -1) -> int:
    """Rank over GF(2) of bit-packed vectors (Python ints), each ANDed with
    `mask` (default every bit), by reduction against an XOR basis keyed by
    leading bit; stops once it reaches limit."""
    basis: dict[int, int] = {}
    for v in vectors:
        v &= mask
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                if len(basis) == limit:
                    return limit
                break
            v ^= b
    return len(basis)


def pack_rows(a: np.ndarray) -> list[int]:
    """Rows of a 0/1 (rows, cols) array as cols-bit Python ints, the first
    column the highest bit."""
    pad = -a.shape[1] % 8
    packed = np.packbits(a.astype(np.uint8), axis=1)
    return [int.from_bytes(r.tobytes(), "big") >> pad for r in packed]


def rref(m: GfMatrix) -> tuple[GfMatrix, list[int]]:
    """Reduced row-echelon form and pivot columns; input not mutated."""
    rows = m.a.tolist()
    pivots = eliminate(rows, m.p, m.cols)
    return GfMatrix(np.array(rows, dtype=np.int64).reshape(m.a.shape), m.p), pivots


def rank(m: GfMatrix) -> int:
    """Dimension of the row space over GF(p)."""
    if m.p == 2:
        return rank2(pack_rows(m.a), min(m.rows, m.cols))
    return len(eliminate(m.a.tolist(), m.p, m.cols))


def nullspace(m: GfMatrix) -> GfMatrix:
    """Basis of {x : m xT = 0} as rows of a (cols - rank) x cols matrix.

    Standard free-variable construction from the RREF: each non-pivot column
    yields one basis vector with a 1 there and minus the pivot-column
    coefficients elsewhere.
    """
    work = m.a.tolist()
    pivots = eliminate(work, m.p, m.cols)
    cols = m.cols
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-work[ri][fc]) % m.p
    return GfMatrix(basis, m.p)


def matmul(a: GfMatrix, b: GfMatrix) -> GfMatrix:
    """Exact product over GF(p)."""
    if a.p != b.p:
        raise ValueError("mismatched moduli")
    if a.cols != b.rows:
        raise ValueError("incompatible shapes")
    return GfMatrix((a.a @ b.a) % a.p, a.p)
