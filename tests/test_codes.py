"""Linear-code states: generators, distances, and the exact entropy formula."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyame import codes
from polyame.codes import (
    LinearCodeState,
    code_entropy,
    codeword_blocks,
    codeword_census,
    codewords,
    dense_statevector,
    from_parity_checks,
    is_ame_code,
    min_hamming_distance,
    rs_code_state,
    rs_generator,
)
from polyame.entropy import Bipartition, entropy, entropy_engine
from polyame.errors import InvalidCode, InvalidCut, NotPrime, TooLarge, UnsupportedPrime
from polyame.gf import GfMatrix, rank, rref
from polyame.polytope import face_parity_matrix, platonic
from polyame.reference import (
    REFERENCE_D2_CODE_K,
    REFERENCE_D2_MIN_DISTANCE,
    reference_rs11,
)


def test_rs_generator_small():
    g = rs_generator(3)
    assert g.a.tolist() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    g5 = rs_generator(5)
    assert g5.a.tolist() == [
        [1, 1, 1, 1, 1, 0],
        [0, 1, 2, 3, 4, 0],
        [0, 1, 4, 4, 1, 1],
    ]


def test_rs_generator_eleven_matches_reference():
    assert rs_generator(11) == reference_rs11()


def test_rs_generator_rejects():
    with pytest.raises(NotPrime):
        rs_generator(4)
    with pytest.raises(UnsupportedPrime):
        rs_generator(2)
    # a composite is in particular an unsupported modulus
    with pytest.raises(UnsupportedPrime):
        rs_generator(9)


def test_codeword_enumeration():
    cs = rs_code_state(3)
    words = list(codewords(cs))
    assert len(words) == 9
    assert words[0] == (0, 0, 0, 0)
    assert len(set(words)) == 9
    # every word is a message times the generator
    g = cs.gen.a
    for i, w in enumerate(words):
        msg = np.array([i // 3, i % 3])
        assert tuple((msg @ g) % 3) == w


def test_codeword_blocks_cover_once():
    cs = rs_code_state(5)
    total = sum(b.shape[0] for b in codeword_blocks(cs, block=17))
    assert total == 5**3


def test_min_distance_hand_cases():
    # repetition code over GF(2)
    rep = LinearCodeState(2, 3, GfMatrix([[1, 1, 1]], 2))
    assert min_hamming_distance(rep) == 3
    # even-weight code of length 3: words 000, 110, 101, 011
    even = from_parity_checks(GfMatrix([[1, 1, 1]], 2))
    assert even.k == 2
    assert min_hamming_distance(even) == 2


def test_codeword_census():
    rep = LinearCodeState(2, 3, GfMatrix([[1, 1, 1]], 2))
    assert codeword_census(rep) == (2, 3)
    point = from_parity_checks(GfMatrix([[1, 0], [0, 1]], 2))  # k = 0
    assert codeword_census(point) == (1, 3)
    # Weights above 255 would wrap in a uint8 count: one block, and two whose
    # first has minimum weight 2 and whose second has words of weight 257 up.
    assert codeword_census(LinearCodeState(2, 300, GfMatrix([[1] * 300], 2))) == (2, 300)
    g = np.zeros((17, 289), dtype=np.int64)
    g[0, 32:] = 1
    for i in range(16):
        g[i + 1, 2 * i : 2 * i + 2] = 1
    assert codeword_census(LinearCodeState(2, 289, GfMatrix(g, 2))) == (2**17, 2)
    for p in (3, 5, 7):
        cs = rs_code_state(p)
        assert codeword_census(cs) == (p**cs.k, min_hamming_distance(cs))


def test_rs12_11_enumerates_once(monkeypatch):
    from polyame import codes
    from polyame.reports import reproduce_rs12_11

    words = []

    def counted(cs, *args, **kwargs):
        for block in codeword_blocks(cs, *args, **kwargs):
            words.append(len(block))
            yield block

    monkeypatch.setattr(codes, "codeword_blocks", counted)
    r = reproduce_rs12_11()
    assert r.status == "pass" and r.details["min_distance"] == 7
    assert sum(words) == 11**6


def test_rs_distances_meet_singleton():
    for p in (3, 5, 7):
        cs = rs_code_state(p)
        assert min_hamming_distance(cs) == cs.n - cs.k + 1


def test_enumeration_budget():
    cs = rs_code_state(17)  # 17^9 messages
    with pytest.raises(TooLarge):
        next(codeword_blocks(cs))
    with pytest.raises(TooLarge):
        min_hamming_distance(cs)
    with pytest.raises(TooLarge):
        dense_statevector(rs_code_state(11))  # 11^12 amplitudes


def test_parity_code_dimensions():
    cs = from_parity_checks(face_parity_matrix(platonic("dodecahedron")))
    assert (cs.p, cs.n, cs.k) == (2, 20, REFERENCE_D2_CODE_K)
    h = face_parity_matrix(platonic("dodecahedron"))
    assert np.all((h.a @ cs.gen.a.T) % 2 == 0)
    assert min_hamming_distance(cs) == REFERENCE_D2_MIN_DISTANCE


def test_code_entropy_symmetry_and_bounds():
    rng = np.random.default_rng(17)
    cs = rs_code_state(5)
    sites = list(range(cs.n))
    for _ in range(50):
        m = int(rng.integers(1, cs.n))
        a = sorted(rng.choice(cs.n, size=m, replace=False).tolist())
        b = [j for j in sites if j not in a]
        s = code_entropy(cs, a)
        assert s == code_entropy(cs, b)
        assert 0 <= s <= min(len(a), len(b), cs.k)


def test_code_entropy_matches_dense():
    """The rank formula agrees with the spectral entropy of the dense vector
    on every proper subset (entropies converted dits -> bits)."""
    cs = rs_code_state(3)
    sv = dense_statevector(cs)
    assert abs(sv.norm - 1.0) < 1e-12
    assert sv.support_size() == 9
    from itertools import combinations

    for m in range(1, cs.n):
        for a in combinations(range(cs.n), m):
            dense = entropy(sv, Bipartition(cs.n, tuple(x + 1 for x in a)))
            exact = code_entropy(cs, a) * np.log2(3)
            assert abs(dense - exact) < 1e-9


def test_is_ame_code():
    assert is_ame_code(rs_code_state(3)).ok
    assert is_ame_code(rs_code_state(5)).ok
    # unbalanced dimension
    rep = LinearCodeState(2, 4, GfMatrix([[1, 1, 1, 1]], 2))
    assert not is_ame_code(rep).ok
    # k = n/2 but a rank-deficient balanced cut exists
    split = LinearCodeState(3, 4, GfMatrix([[1, 0, 0, 0], [0, 1, 0, 0]], 3))
    verdict = is_ame_code(split)
    assert not verdict.ok and verdict.witness is not None
    cols = sorted(verdict.witness)
    assert rank(GfMatrix(split.gen.a[:, cols], split.gen.p)) < 2


def test_generator_must_be_full_rank():
    with pytest.raises(InvalidCode):
        LinearCodeState(2, 3, GfMatrix([[1, 1, 0], [1, 1, 0]], 2))


def test_generator_must_fit_the_state():
    g = GfMatrix([[1, 1, 0]], 2)
    with pytest.raises(InvalidCode):
        LinearCodeState(3, 3, g)
    with pytest.raises(InvalidCode):
        LinearCodeState(2, 4, g)


def test_code_entropy_reads_its_cut_once():
    """A one-shot iterable gives the same entropy as the list, for odd p and
    for p = 2."""
    for cs in (rs_code_state(3), from_parity_checks(face_parity_matrix(platonic("dodecahedron")))):
        assert code_entropy(cs, iter([0, 1])) == code_entropy(cs, [0, 1])
    assert code_entropy(rs_code_state(3), iter([0, 1])) == 2


def test_code_entropy_rejects_out_of_range_sites():
    """Sites outside 0..n-1 and repeated sites, for odd p and for p = 2, and
    masks outside 0..2^n - 1 of the engine's per-cut rank."""
    d2 = from_parity_checks(face_parity_matrix(platonic("dodecahedron")))
    for cs in (rs_code_state(3), d2):
        for cut in ([cs.n], [0, -1], [1, cs.n + 3], [0, 0], [2, 1, 2]):
            with pytest.raises(InvalidCut):
                code_entropy(cs, cut)
    entropies = entropy_engine(d2)[0]
    for mask in (1 << d2.n, -1, -(1 << d2.n)):
        with pytest.raises(InvalidCut):
            entropies([mask])


def test_graph_rows_are_built_on_first_use():
    """A code state builds no check matrix or graph until its first p = 2
    entropy, which keeps the graph rows: a symmetric adjacency matrix with a
    zero diagonal. With beta = 0 every edge joins a pivot site of G to a
    non-pivot site."""
    cs = from_parity_checks(face_parity_matrix(platonic("dodecahedron")))
    assert not {"check_bits", "check_rows", "graph_rows"} & cs.__dict__.keys()
    code_entropy(cs, [0, 1])
    assert "graph_rows" in cs.__dict__ and "check_bits" not in cs.__dict__
    n = cs.n
    assert len(cs.graph_rows) == n
    adj = np.array([[r >> (n - 1 - j) & 1 for j in range(n)] for r in cs.graph_rows])
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
    pivot = np.isin(np.arange(n), rref(cs.gen)[1])
    assert not adj[np.ix_(pivot, pivot)].any() and not adj[np.ix_(~pivot, ~pivot)].any()
    assert adj[np.ix_(pivot, ~pivot)].any()


def test_parity_code_of_full_rank_checks():
    # square invertible parity matrix -> the zero-dimensional code {0}
    h = GfMatrix([[1, 0], [1, 1]], 2)
    cs = from_parity_checks(h)
    assert cs.k == 0
    assert list(codewords(cs)) == [(0, 0)]


LAST_CUT_SINGULAR = np.array(
    [[1, 9, 2, 10], [2, 4, 9, 7], [3, 10, 10, 10], [7, 7, 9, 10]], dtype=np.int64
)


def _first_deficient_cut(cs):
    """First balanced cut, in lexicographic order, whose columns have rank
    below n/2, one rank per cut; None if there is none."""
    half = cs.n // 2
    for a in combinations(range(cs.n), half):
        if rank(GfMatrix(cs.gen.a[:, list(a)], cs.gen.p)) < half:
            return a
    return None


def _rs_with_column(p, j, combo):
    """RS(p) with column j replaced by a combination {column: coefficient}
    of other columns, which makes every cut holding j and those columns
    rank-deficient."""
    g = rs_generator(p).a.copy()
    g[:, j] = sum(c * g[:, i] for i, c in combo.items()) % p
    return LinearCodeState(p, p + 1, GfMatrix(g, p))


@pytest.mark.parametrize("chunk", [1, 7, codes.AME_CHUNK])
def test_is_ame_code_witness_is_first_deficient_cut(monkeypatch, chunk):
    monkeypatch.setattr(codes, "AME_CHUNK", chunk)
    cases = [
        _rs_with_column(7, 1, {0: 2}),  # deficient from the first cut on
        _rs_with_column(7, 5, {2: 1, 3: 4}),  # first at a middle cut
        # [I | A] with every proper minor of A nonzero but det A = 0:
        # only the last cut, the columns of A, is deficient.
        LinearCodeState(
            11, 8, GfMatrix(np.hstack([np.eye(4, dtype=np.int64), LAST_CUT_SINGULAR]), 11)
        ),
        LinearCodeState(3, 4, GfMatrix([[1, 0, 0, 0], [0, 1, 0, 0]], 3)),
        # 20 minors of size 3, more than one chunk of 7 rows
        _rs_with_column(11, 9, {4: 3, 7: 5}),
        # GF(2): [I | A] with three zero entries in A
        LinearCodeState(
            2, 6, GfMatrix([[1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]], 2)
        ),
    ]
    positions = []
    for cs in cases:
        verdict = is_ame_code(cs)
        first = _first_deficient_cut(cs)
        assert first is not None and not verdict.ok
        assert verdict.witness == first
        positions.append(list(combinations(range(cs.n), cs.n // 2)).index(first))
    assert positions[:3] == [0, positions[1], 69] and 0 < positions[1] < 69
    assert positions[4] > 0 and positions[5] > 0
    assert is_ame_code(rs_code_state(7)).ok and _first_deficient_cut(rs_code_state(7)) is None
    assert is_ame_code(LinearCodeState(2, 2, GfMatrix([[1, 1]], 2))).ok  # the Bell pair


def test_is_ame_code_matches_first_deficient_cut():
    """Seeded random generators over GF(p), k = 1..5, and RS(p) with one
    column planted as a combination of others: the verdict and witness equal
    the first deficient cut found by one rank per cut."""
    rng = np.random.default_rng(19)
    codes_seen = []
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 6):
            for _ in range(10):
                g = rng.integers(0, p, size=(k, 2 * k))
                if rng.random() < 0.3:
                    g[:, rng.integers(2 * k)] = 0
                if rank(GfMatrix(g, p)) == k:
                    codes_seen.append(LinearCodeState(p, 2 * k, GfMatrix(g, p)))
        if p > 2:
            for _ in range(4):
                j, *others = rng.choice(p + 1, size=3, replace=False)
                combo = {int(i): int(rng.integers(1, p)) for i in others[: rng.integers(1, 3)]}
                codes_seen.append(_rs_with_column(p, int(j), combo))
    verdicts = []
    for cs in codes_seen:
        verdict, first = is_ame_code(cs), _first_deficient_cut(cs)
        assert (verdict.ok, verdict.witness) == (first is None, first), cs.gen
        verdicts.append(verdict.ok)
    assert len(verdicts) == 302 and sum(verdicts) == 44


@pytest.mark.parametrize("p", [17, 19, 23])
def test_larger_rs_codes_are_ame(p):
    """n = 18, 20 and 24; n = 20 counts the dodecahedron's vertices and the
    icosahedron's faces (Table 3)."""
    assert is_ame_code(rs_code_state(p)).ok


def _codewords_by_definition(cs):
    msgs = np.array(list(product(range(cs.p), repeat=cs.k)), dtype=np.int64)
    return (msgs.reshape(cs.p**cs.k, cs.k) @ cs.gen.a) % cs.p


# Codes whose words sit at the edges of the block dtypes: sums of two
# digits reach 252 (uint8), 260 and 512 (uint16), and 131072 (uint32).
WIDE_CODES = [
    (2, [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]]),
    (127, [[1, 2, 126, 0], [0, 1, 5, 126]]),
    (131, [[1, 130, 7], [0, 1, 129]]),
    (257, [[1, 256, 128]]),
    (65537, [[1, 65536, 3]]),
]


# RS(5) tabulates no low digit below a 25-row block and one from 25 rows up.
@pytest.mark.parametrize("block", [1, 17, 24, 25, None])
def test_codeword_blocks_match_definition(block):
    states = [
        rs_code_state(3),
        rs_code_state(5),
        from_parity_checks(GfMatrix([[1, 1, 1, 1]], 2)),
        from_parity_checks(GfMatrix([[1, 0], [1, 1]], 2)),  # k = 0
        from_parity_checks(GfMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]], 7)),  # k = 0
    ] + [LinearCodeState(p, len(g[0]), GfMatrix(g, p)) for p, g in WIDE_CODES]
    for cs in states:
        blocks = list(codeword_blocks(cs) if block is None else codeword_blocks(cs, block))
        if block is not None:
            assert all(1 <= len(b) <= block for b in blocks)
        for b in blocks:
            assert b.dtype.kind == "u" and b.flags.f_contiguous
            assert int(b.max()) < cs.p
        words = np.vstack(blocks)
        assert words.shape == (cs.p**cs.k, cs.n)
        assert np.array_equal(words, _codewords_by_definition(cs))


@st.composite
def full_rank_codes(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    assume(p**k <= 4096)
    g = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                      min_size=k, max_size=k))
    gen = GfMatrix(g, p)
    assume(rank(gen) == k)
    return LinearCodeState(p, n, gen)


@settings(max_examples=150, deadline=None)
@given(full_rank_codes())
def test_codeword_census_matches_definition(cs):
    words = _codewords_by_definition(cs)
    weights = np.count_nonzero(words, axis=1)
    nonzero = weights[weights > 0]
    expected = (len(words), int(nonzero.min()) if nonzero.size else cs.n + 1)
    assert codeword_census(cs) == expected


def test_dense_statevector_indexes_in_int64():
    """p^n = 131^3 amplitudes: a basis index formed in the uint16 dtype of
    the blocks would wrap and land on the wrong amplitudes."""
    p, g = WIDE_CODES[2]
    cs = LinearCodeState(p, 3, GfMatrix(g, p))
    place = p ** np.arange(cs.n - 1, -1, -1, dtype=np.int64)
    expected = np.zeros(p**cs.n)
    expected[_codewords_by_definition(cs) @ place] = 1.0 / p
    assert np.array_equal(dense_statevector(cs).amps, expected)
