"""Uniform-superposition linear-code states over GF(p).

A k-dimensional code C over GF(p) of length n represents the normalized state
(1/sqrt(p^k)) sum_{x in GF(p)^k} |x G>. Entanglement entropies of such states
are exact integers in dits: S_A = rank(G_A) + rank(G_B) - k, with G_A, G_B the
generator restricted to the two sides of the cut. It stays exact where dense
vectors are infeasible. For p = 2 the state is the stabilizer state with
check matrix [G | 0 ; 0 | H], H = nullspace(G), and `code_entropy` takes the
one qubit formula of `graph_entropy` instead. Every qubit stabilizer state is
locally Clifford-equivalent to a graph state Gamma (Van den Nest, Dehaene &
De Moor, PRA 69, 022316 (2004)), and S(A) = rank Gamma[A, B] (Hein, Eisert &
Briegel, PRA 69, 062311 (2004)): |A| vectors of n bits per cut, against the
2 min(|A|, |B|) site columns of rank M_A - |A|. `CheckMatrix.graph_rows`
builds Gamma from G and Q's bilinear form. `check_entropy_table` gives every
cut's entropy at once from the check rows instead, from the number of
elements of their group supported inside each cut, so the table and the
per-cut rank come from two representations.

A code state with k = n/2 is AME iff the code is MDS (Helwig, Cui, Latorre,
Riera & Lo, PRA 86, 052335 (2012)), that is iff every square submatrix of A
in a generator [I | A] is nonsingular (MacWilliams & Sloane, The Theory of
Error-Correcting Codes, ch. 11, Thm 8); `is_ame_code` reads one minor per cut.

Codewords are enumerated in blocks, each the transpose of an (n, rows) array
in the smallest unsigned dtype that holds 2(p - 1): every column contiguous.
A block is one row gather from a table of the low message digits' codewords
shifted by every digit, and `codeword_census` weighs it in one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidCode, InvalidCut, NotPrime, TooLarge, UnsupportedPrime
from .gf import GfMatrix, eliminate, is_prime, nullspace, pack_rows, rank, rank2, rref
from .states import DENSE_BUDGET, StateVector

# Guard for codeword enumeration (p^k); dense vectors (p^n) share the
# package-wide DENSE_BUDGET.
ENUM_BUDGET = 2**26
# Rows of one size's minors that is_ame_code expands at a time, so each
# temporary holds AME_CHUNK x C(k, t) entries.
AME_CHUNK = 64


class CheckMatrix:
    """A qubit state sum_u (-1)^Q(u) |x0 + u G>, G of size k x n, in two
    forms. `check_rows`: the n x 2n 0/1 `check_bits` (X columns, then Z
    columns) as 2n-bit rows, X bits above Z. `graph_rows`: the adjacency
    matrix of a graph state locally Clifford-equivalent to it, as n-bit rows,
    site 0 the top bit. Subclasses give G and Q's bilinear form beta
    (`form`)."""

    @cached_property
    def check_rows(self) -> list[int]:
        return pack_rows(self.check_bits)

    @cached_property
    def graph_rows(self) -> list[int]:
        """Row-reduce [G | I] to [R | E], pivot sites I: u G = (u E^-1) R, so
        the pivot sites carry v = u E^-1 and a non-pivot site r the parity
        v . R[:, r]. A Hadamard on each non-pivot site makes that parity an
        edge i-r wherever R[i, r] = 1, and Q(u) = Q(v E) puts the edges
        E beta E^T among the pivot sites (zero diagonal, as beta's); the
        rest is local Paulis. No edges join two non-pivot sites."""
        g, beta = self.form
        k, n = g.shape
        red, pivots = rref(GfMatrix(np.hstack([g, np.eye(k, dtype=np.int64)]), 2))
        e = red.a[:, n:]
        adj = np.zeros((n, n), dtype=np.int64)
        adj[pivots] = red.a[:, :n]
        adj[np.ix_(pivots, pivots)] = e @ beta @ e.T % 2
        return pack_rows(adj | adj.T)


@dataclass(frozen=True)
class LinearCodeState(CheckMatrix):
    p: int
    n: int
    gen: GfMatrix

    def __post_init__(self):
        if self.gen.p != self.p or self.gen.cols != self.n:
            raise InvalidCode(
                f"generator over GF({self.gen.p}) with {self.gen.cols} columns "
                f"does not fit p = {self.p}, n = {self.n}"
            )
        if rank(self.gen) != self.gen.rows:
            raise InvalidCode("generator rows must be independent")

    @property
    def k(self) -> int:
        return self.gen.rows

    @cached_property
    def check_bits(self) -> np.ndarray:
        """[G | 0 ; 0 | H], H = nullspace(G); p = 2 only."""
        g, h = self.gen.a, nullspace(self.gen).a
        return np.block([[g, 0 * g], [0 * h, h]]).astype(np.uint8)

    @property
    def form(self) -> tuple[np.ndarray, np.ndarray]:
        """G and beta = 0: every sign is +."""
        return self.gen.a, np.zeros((self.k, self.k), dtype=np.int64)

    @cached_property
    def columns(self) -> tuple:
        """Generator columns as int tuples, the rows `eliminate` takes."""
        return tuple(map(tuple, self.gen.a.T.tolist()))


def from_parity_checks(h: GfMatrix) -> LinearCodeState:
    """Code state whose support is the solution set of h x = 0.

    The generator is a nullspace basis of h; k = cols - rank(h). A full-rank
    square h yields the valid k = 0 single-basis-state code.
    """
    return LinearCodeState(h.p, h.cols, nullspace(h))


def rs_generator(p: int) -> GfMatrix:
    """Extended Reed-Solomon generator over GF(p): k = (p+1)/2 rows, n = p+1
    columns. Column j (j = 0..p-1) is (j^0, j^1, ..., j^(k-1)) mod p with
    0^0 = 1; the final column (0, ..., 0, 1) is the point at infinity.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise UnsupportedPrime("p = 2: dimension (p+1)/2 is not an integer")
    n = p + 1
    k = n // 2
    g = np.zeros((k, n), dtype=np.int64)
    g[:, :p] = [[pow(j, r, p) for j in range(p)] for r in range(k)]
    g[k - 1, n - 1] = 1
    return GfMatrix(g, p)


def rs_code_state(p: int) -> LinearCodeState:
    return LinearCodeState(p, p + 1, rs_generator(p))


def _check_budget(what: str, p: int, e: int, budget: int) -> None:
    if p**e > budget:
        raise TooLarge(f"{what} = {p}^{e} exceeds budget {budget}")


def codeword_blocks(cs: LinearCodeState, block: int = 1 << 16) -> Iterator[np.ndarray]:
    """All p^k codewords as blocks of at most `block` rows (at least one),
    messages in lexicographic order. A block is a fresh transpose of an
    (n, rows) array, so each column is contiguous, in the smallest unsigned
    dtype that holds 2(p - 1), with every value below p.

    The codewords of the `low` low message digits are tabulated once, then
    shifted: row j p + h of `shifted` is site j's table row plus h mod p, each
    sum s reduced as min(s, s - p) by unsigned wraparound. A block is one
    gather of rows j p + head_j, head_j the site-j digit of a few high-digit
    prefixes. `low` is the largest value below k with p^(low + 1) <= `block`,
    so `shifted` holds at most n `block` entries. With low = 0 (p^2 > `block`,
    or k <= 1) there is no table: the prefixes' words are the codewords.
    """
    _check_budget("codeword enumeration p^k", cs.p, cs.k, ENUM_BUDGET)
    p, k, n, g = cs.p, cs.k, cs.n, cs.gen.a
    dtype = np.min_scalar_type(2 * (p - 1))
    low = 0
    while low + 1 < k and p ** (low + 2) <= block:
        low += 1

    def add_mod(heads, table):
        s = heads[:, :, None] + table[:, None, :]
        return np.minimum(s, s - dtype.type(p), out=s)

    if low:
        table = np.zeros((n, 1), dtype=dtype)
        for row in g[k - low :]:
            table = add_mod(table, (np.outer(row, np.arange(p)) % p).astype(dtype)).reshape(n, -1)
        digits = np.broadcast_to(np.arange(p, dtype=dtype), (n, p))
        shifted = add_mod(digits, table).reshape(n * p, -1)
        site_rows = p * np.arange(n, dtype=np.int64)[:, None]
    place = p ** np.arange(k - low - 1, -1, -1, dtype=np.int64)
    prefixes = p ** (k - low)
    per = max(1, block // p**low)
    for start in range(0, prefixes, per):
        idx = np.arange(start, min(start + per, prefixes), dtype=np.int64)
        heads = (idx[:, None] // place % p) @ g[: k - low] % p
        if low:
            yield shifted.take(site_rows + heads.T, axis=0).reshape(n, -1).T
        else:
            yield heads.astype(dtype, order="F")


def codewords(cs: LinearCodeState) -> Iterator[tuple[int, ...]]:
    """Stream of the p^k codewords as tuples, deterministic order."""
    for blockarr in codeword_blocks(cs):
        yield from map(tuple, blockarr.tolist())


def codeword_census(cs: LinearCodeState) -> tuple[int, int]:
    """Number of codewords enumerated and the minimum Hamming weight of the
    nonzero ones (n + 1 if there are none), in one pass over
    `codeword_blocks`, each block's weights in one reduction over its sites.
    The zero word is skipped by position, as message 0 is the first word:
    G has full row rank, so no other message gives it."""
    count, best = 0, cs.n + 1
    dtype = np.min_scalar_type(best)  # holds every weight, whatever `best` falls to
    for blockarr in codeword_blocks(cs):
        weights = np.add.reduce((blockarr.T != 0).view(np.uint8), axis=0, dtype=dtype)
        best = int(weights[1 if count == 0 else 0 :].min(initial=best))
        count += len(blockarr)
    return count, best


def min_hamming_distance(cs: LinearCodeState) -> int:
    """Minimum Hamming weight over nonzero codewords (= min distance, by
    linearity), by enumerating every codeword."""
    return codeword_census(cs)[1]


def cut_mask(n: int, a) -> int:
    """Distinct 0-based cut sites `a` as an n-bit mask, site 0 the top bit."""
    mask = count = 0
    for j in a:
        if not 0 <= j < n:
            raise InvalidCut(f"cut site {j} out of range 0..{n - 1}")
        mask |= 1 << (n - 1 - j)
        count += 1
    if mask.bit_count() != count:
        raise InvalidCut(f"cut repeats a site: {count} sites, {mask.bit_count()} distinct")
    return mask


def graph_entropy(rows: list[int], a) -> int:
    """Entropy in bits across the cut (a | complement), a the distinct
    0-based sites, of the state with `graph_rows` `rows`: the rank over GF(2)
    of Gamma[A, B], the rows of A's sites masked to B's (Hein, Eisert &
    Briegel, PRA 69, 062311 (2004))."""
    n = len(rows)
    in_a, picked = 0, []
    for j in a:
        if not 0 <= j < n:
            raise InvalidCut(f"cut site {j} out of range 0..{n - 1}")
        in_a |= 1 << (n - 1 - j)
        picked.append(rows[j])
    size = len(picked)
    if in_a.bit_count() != size:
        raise InvalidCut(f"cut repeats a site: {size} sites, {in_a.bit_count()} distinct")
    return rank2(picked, min(size, n - size), in_a ^ (1 << n) - 1)


def check_entropy_table(rows: list[int], n: int) -> np.ndarray:
    """The entropy of every cut at once, as an int8 array indexed by the
    site mask: S(A) = |A| - log2 N(A), N(A) the number of elements of the
    group generated by the n check rows that are supported inside A
    (Fattal et al., quant-ph/0406168). The 2^n elements come from the rows
    by XOR doubling, and N for every mask from one histogram of their
    support masks and an n-pass subset-sum (zeta) transform."""
    group = np.zeros(1 << len(rows), dtype=np.int64)
    for j, r in enumerate(rows):
        np.bitwise_xor(group[: 1 << j], r, out=group[1 << j : 2 << j])
    supports = group >> n
    supports |= group
    supports &= (1 << n) - 1
    del group
    count = np.bincount(supports, minlength=1 << n)
    del supports
    size = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        halves = count.reshape(-1, 2, 1 << i)
        halves[:, 1] += halves[:, 0]
        np.add(size[: 1 << i], 1, out=size[1 << i : 2 << i])
    # N(A) is a power of two (a subgroup's order), so its exponent is exact.
    return size - (np.frexp(count)[1] - 1).astype(np.int8)


def code_entropy(cs: LinearCodeState, a) -> int:
    """Entanglement entropy of the code state across the cut (a | complement),
    in dits: rank(G_A) + rank(G_B) - k, and `graph_entropy` for p = 2.
    Multiply by log2(p) for bits."""
    if cs.p == 2:
        return graph_entropy(cs.graph_rows, a)
    in_a = cut_mask(cs.n, a)
    bit = [in_a >> (cs.n - 1 - j) & 1 for j in range(cs.n)]
    side_a = [c for c, b in zip(cs.columns, bit) if b]
    side_b = [c for c, b in zip(cs.columns, bit) if not b]
    return len(eliminate(side_a, cs.p, cs.k)) + len(eliminate(side_b, cs.p, cs.k)) - cs.k


@dataclass(frozen=True)
class AmeCodeResult:
    ok: bool
    reason: str = ""
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def is_ame_code(cs: LinearCodeState) -> AmeCodeResult:
    """True iff every balanced cut carries maximal entropy, i.e. G restricted
    to any n/2 columns has rank n/2. Requires n even and k = n/2. If cut
    (0, ..., k-1) has full rank, G row-reduces to [I | A], and cut S has full
    rank iff the minor A[R, C] is nonzero: R = {0..k-1} - S, C = (S & {k..n-1})
    - k. The C(k, t)^2 minors of size t, in `combinations` order, are one
    Laplace step along the last column from those of size t - 1, `AME_CHUNK`
    rows at a time. The witness of a failure is the lexicographically first
    deficient cut: the largest cut mask, site 0 the top bit, of a zero minor."""
    if cs.n % 2 != 0:
        return AmeCodeResult(False, f"n = {cs.n} is odd")
    k, p = cs.n // 2, cs.p
    if cs.k != k:
        return AmeCodeResult(False, f"k = {cs.k} != n/2 = {k}")
    if comb(k, k // 2) ** 2 > DENSE_BUDGET:
        raise TooLarge(f"{comb(k, k // 2)}^2 minors of one size exceed budget {DENSE_BUDGET}")
    reduced, pivots = rref(cs.gen)
    if pivots != list(range(k)):
        return AmeCodeResult(False, "rank-deficient balanced cut", tuple(range(k)))
    a = reduced.a[:, k:]
    dtype = np.min_scalar_type(p - 1)
    rank_of = np.zeros(1 << k, dtype=np.intp)
    level = np.ones((1, 1), dtype=dtype)
    worst = -1
    for t in range(1, k + 1):
        sets = np.array(list(combinations(range(k), t)), dtype=np.int64)
        bits = 1 << (k - 1 - sets)
        masks = bits.sum(axis=1)
        rank_of[masks] = np.arange(len(masks))
        drop = rank_of[masks[:, None] ^ bits]  # rank of each set less its i-th element
        # A sum of t products holds no more than k (p - 1)^2 in magnitude.
        last = a[:, sets[:, -1]].astype(np.min_scalar_type(-k * (p - 1) ** 2))
        below = level[:, drop[:, -1]]
        level = np.empty((len(masks), len(masks)), dtype=dtype)
        for start in range(0, len(masks), AME_CHUNK):
            rows = slice(start, start + AME_CHUNK)
            det = sum((-1) ** (t - 1 - i) * last[sets[rows, i]] * below[drop[rows, i]]
                      for i in range(t))
            level[rows] = det = det % p
            cuts = np.where(det == 0, (masks[rows, None] ^ (1 << k) - 1) << k | masks, -1)
            worst = max(worst, int(cuts.max()))
    if worst < 0:
        return AmeCodeResult(True)
    witness = tuple(j for j in range(cs.n) if worst >> (cs.n - 1 - j) & 1)
    return AmeCodeResult(False, "rank-deficient balanced cut", witness)


def dense_statevector(cs: LinearCodeState) -> StateVector:
    """Dense vector with amplitude 1/sqrt(p^k) on every codeword (big-endian
    digit indexing), 0 elsewhere."""
    _check_budget("dense vector p^n", cs.p, cs.n, DENSE_BUDGET)
    amps = np.zeros(cs.p**cs.n, dtype=np.float64)
    place = cs.p ** np.arange(cs.n - 1, -1, -1, dtype=np.int64)
    scale = 1.0 / np.sqrt(float(cs.p**cs.k))
    for blockarr in codeword_blocks(cs):
        amps[blockarr.astype(np.int64) @ place] = scale
    return StateVector(cs.n, cs.p, amps)
