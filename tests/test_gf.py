"""Exact prime-field linear algebra: rank/nullspace/rref identities."""

from itertools import product
from math import log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyame.errors import NotPrime
from polyame.gf import (
    GfMatrix,
    eliminate,
    is_prime,
    matmul,
    nullspace,
    pack_rows,
    rank,
    rank2,
    rref,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for x in range(-3, 30):
        assert is_prime(x) == (x in primes)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        GfMatrix([[1]], 9)


def test_matrix_reduced_and_frozen():
    m = GfMatrix([[5, -1], [7, 3]], 5)
    assert m.a.tolist() == [[0, 4], [2, 3]]
    with pytest.raises(ValueError):
        m.a[0, 0] = 1


def test_rref_idempotent_and_canonical():
    rng = np.random.default_rng(3)
    for p in PRIMES:
        for _ in range(20):
            rows, cols = rng.integers(1, 7, 2)
            m = GfMatrix(rng.integers(0, p, (rows, cols)), p)
            r1, piv = rref(m)
            r2, piv2 = rref(r1)
            assert r1 == r2 and piv == piv2
            assert piv == sorted(piv)
            # row order must not matter
            perm = rng.permutation(int(rows))
            r3, piv3 = rref(GfMatrix(m.a[perm], p))
            assert r3 == r1 and piv3 == piv


def test_rank_properties():
    rng = np.random.default_rng(7)
    for p in PRIMES:
        for _ in range(20):
            rows, cols = rng.integers(1, 7, 2)
            a = rng.integers(0, p, (int(rows), int(cols)))
            m = GfMatrix(a, p)
            r = rank(m)
            assert 0 <= r <= min(rows, cols)
            # duplicating rows cannot change the row space
            assert rank(GfMatrix(np.vstack([a, a]), p)) == r
            # a row of zeros neither
            assert rank(GfMatrix(np.vstack([a, np.zeros((1, cols), int)]), p)) == r


def test_rank_nullity():
    rng = np.random.default_rng(19)
    for p in PRIMES:
        for _ in range(25):
            rows, cols = rng.integers(1, 8, 2)
            m = GfMatrix(rng.integers(0, p, (int(rows), int(cols))), p)
            ns = nullspace(m)
            assert rank(m) + ns.rows == m.cols
            # every basis vector really is annihilated
            assert np.all((m.a @ ns.a.T) % p == 0)
            if ns.rows:
                assert rank(ns) == ns.rows


def test_matmul_exact():
    rng = np.random.default_rng(23)
    for p in (3, 11):
        a = GfMatrix(rng.integers(0, p, (4, 5)), p)
        b = GfMatrix(rng.integers(0, p, (5, 3)), p)
        c = matmul(a, b)
        assert np.array_equal(c.a, (a.a @ b.a) % p)
    with pytest.raises(ValueError):
        matmul(GfMatrix([[1]], 3), GfMatrix([[1]], 5))
    with pytest.raises(ValueError):
        matmul(GfMatrix([[1, 2]], 3), GfMatrix([[1, 2]], 3))


def test_rank_invariant_under_invertible_action():
    """rank(UM) = rank(M) for random invertible U."""
    rng = np.random.default_rng(31)
    p = 5
    for _ in range(20):
        m = GfMatrix(rng.integers(0, p, (4, 6)), p)
        while True:
            u = GfMatrix(rng.integers(0, p, (4, 4)), p)
            if rank(u) == 4:
                break
        assert rank(matmul(u, m)) == rank(m)


def _row_span_size(a: np.ndarray, p: int) -> int:
    """Number of distinct vectors x a mod p, by enumerating every x."""
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 1
    msgs = np.array(list(product(range(p), repeat=rows)), dtype=np.int64)
    return len(np.unique((msgs @ a) % p, axis=0))


@st.composite
def small_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return p, np.array(entries, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example((2, np.zeros((0, 3), dtype=np.int64)))
@example((13, np.zeros((3, 0), dtype=np.int64)))
@example((5, np.zeros((0, 0), dtype=np.int64)))
@example((7, np.zeros((4, 5), dtype=np.int64)))
def test_rank_counts_the_row_span(case):
    """p^rank is the size of the row span, counted by brute force."""
    p, a = case
    r = rank(GfMatrix(a, p))
    assert p**r == _row_span_size(a, p)
    assert round(log(_row_span_size(a, p), p)) == r


def test_gf2_bit_packed_rank_matches_elimination():
    """The XOR-basis rank of bit-packed rows agrees with Gauss-Jordan mod 2,
    also for rows wider than a machine word."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        rows, cols = (int(x) for x in rng.integers(0, 14, 2))
        cols *= int(rng.choice([1, 13]))
        a = (rng.random((rows, cols)) < rng.random()).astype(np.int64)
        expected = len(eliminate(a.tolist(), 2, cols))
        assert rank(GfMatrix(a, 2)) == expected
        assert rank2(pack_rows(a.T), min(rows, cols)) == expected


def test_rank2_mask_is_applied_to_every_vector():
    """rank2(v, limit, mask) is the rank of the masked vectors, also when the
    limit stops it early, for vectors wider than a machine word."""
    rng = np.random.default_rng(43)
    for _ in range(300):
        width = int(rng.choice([5, 20, 70]))
        vectors = [int(x) for x in rng.integers(0, 2, (int(rng.integers(0, 12)), width)) @ (
            1 << np.arange(width, dtype=object))]
        mask = int(rng.integers(0, 2, width) @ (1 << np.arange(width, dtype=object)))
        limit = int(rng.integers(0, len(vectors) + 1))
        assert rank2(vectors, limit, mask) == rank2([x & mask for x in vectors], limit)
    assert rank2([0b1010, 0b0110], 2, mask=0b0011) == 1
