"""Computations the benchmark checks the package against.

Nothing here imports polyame: entropies come from numpy's SVD rather than
the package's Gram-matrix eigenvalues, GF(2) ranks from integer bit masks,
odd-p ranks from plain-list Gaussian elimination, and the Reed-Solomon
generator from its definition.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

INTEGER_TOL = 1e-9


def entropy_svd(amps: np.ndarray, n: int, d: int, sites) -> float:
    """Von Neumann entropy (bits) of a pure state's reduction to `sites`
    (1-based, most significant first), from the singular values of the
    amplitudes reshaped to (sites) x (rest)."""
    a_axes = [s - 1 for s in sorted(sites)]
    b_axes = [j for j in range(n) if j not in a_axes]
    mat = amps.reshape((d,) * n).transpose(a_axes + b_axes).reshape(d ** len(a_axes), -1)
    sing = np.linalg.svd(mat, compute_uv=False)
    lam = sing * sing
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum())


def is_integer(x: float) -> bool:
    return abs(x - round(x)) <= INTEGER_TOL


def gf2_rank(masks) -> int:
    """Rank over GF(2) of vectors given as integer bit masks."""
    pivots: dict[int, int] = {}
    for v in masks:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def column_masks(h) -> list[int]:
    """Columns of a 0/1 matrix (rows x cols) as bit masks over the rows."""
    return [
        sum(int(h[r][c]) % 2 << r for r in range(len(h)))
        for c in range(len(h[0]))
    ]


def code_cut_entropy(cols: list[int], a) -> int:
    """Entropy (bits) across (a | rest) of the uniform superposition over the
    GF(2) code {x : H x = 0}, from the parity checks' columns alone:
    S(A) = rank H_A + rank H_B - rank H, which equals
    rank G_A + rank G_B - k for any generator G of the same code."""
    inside = set(a)
    ra = gf2_rank(cols[j] for j in inside)
    rb = gf2_rank(cols[j] for j in range(len(cols)) if j not in inside)
    return ra + rb - gf2_rank(cols)


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) by Gauss-Jordan elimination on Python integer lists."""
    m = [[int(x) % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rs_generator(p: int) -> list[list[int]]:
    """Extended Reed-Solomon generator over GF(p), k = (p+1)/2 rows: column j
    < p evaluates the monomials 1, x, ..., x^(k-1) at x = j (0^0 = 1); the
    last column is the point at infinity (0, ..., 0, 1)."""
    k = (p + 1) // 2
    cols = [[pow(j, r, p) for r in range(k)] for j in range(p)]
    cols.append([0] * (k - 1) + [1])
    return [[col[r] for col in cols] for r in range(k)]


def balanced_cuts(n: int):
    return combinations(range(n), n // 2)

