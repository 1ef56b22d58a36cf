"""Stabilizer-form entropy engine: the rank formula against dense spectra,
recognition of dense vectors, and the routing of sweeps."""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyame import stabilizer
from polyame.codes import (
    LinearCodeState,
    check_entropy_table,
    code_entropy,
    cut_mask,
    dense_statevector,
    from_parity_checks,
    graph_entropy,
)
from polyame.contraction import _oriented_cycle, build_d1, build_d2, build_hovering
from polyame.entropy import (
    Bipartition,
    batch_entropies,
    entropy,
    entropy_engine,
    entropy_sweep,
    exhaustive_masks,
    exhaustive_partitions,
    sample_partitions,
    verify_ame,
)
from polyame.errors import InvalidCode
from polyame.gf import GfMatrix, rank, rank2, rref
from polyame.polytope import face_parity_matrix, platonic
from polyame.stabilizer import StabilizerState, from_statevector, stabilizer_entropy
from polyame.states import StateVector, ame43, ame52_table1, normalized


@st.composite
def stabilizer_states(draw):
    """Random (G, x0, Q): G the nonzero rows of a reduced random matrix."""
    n = draw(st.integers(2, 8))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=n))
    g = rref(GfMatrix(np.array(bits, dtype=np.int64).reshape(len(bits), n), 2))[0].a
    g = g[g.any(axis=1)]
    k = len(g)
    q = np.array(draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)))
    return StabilizerState(
        LinearCodeState(2, n, GfMatrix(g.reshape(k, n), 2)),
        draw(st.integers(0, 2**n - 1)),
        np.triu(q.reshape(k, k)),
        draw(st.integers(0, 1)),
    )


def _symplectic(x: int, y: int, n: int) -> int:
    """Symplectic product of two 2n-bit check rows (X bits above Z bits)."""
    low = (1 << n) - 1
    return ((x >> n & y & low).bit_count() + (y >> n & x & low).bit_count()) % 2


@settings(max_examples=60, deadline=None)
@given(stabilizer_states())
def test_rank_formula_matches_dense_spectrum(state):
    n = state.code.n
    sv = StateVector(n, 2, state.amplitudes())
    rows = state.check_rows
    # n commuting, independent Pauli checks: a complete stabilizer group.
    assert len(rows) == n and rank2(rows, n) == n
    assert not any(_symplectic(x, y, n) for x, y in combinations(rows, 2))
    found = from_statevector(sv)
    assert found is not None and found.code.k == state.code.k
    code = state.code
    # The code state's checks [G | 0 ; 0 | H] form a complete group as well.
    code_rows = code.check_rows
    assert len(code_rows) == n and rank2(code_rows, n) == n
    assert not any(_symplectic(x, y, n) for x, y in combinations(code_rows, 2))
    code_sv = dense_statevector(code)
    flat = StabilizerState(code, state.shift, np.zeros_like(state.q))
    table, code_table = check_entropy_table(rows, n), check_entropy_table(code_rows, n)
    assert table[0] == table[-1] == code_table[0] == code_table[-1] == 0
    for m in range(1, n):
        for sites in combinations(range(1, n + 1), m):
            a = [s - 1 for s in sites]
            s = stabilizer_entropy(state, a)
            assert abs(entropy(sv, Bipartition(n, sites)) - s) < 1e-9
            assert stabilizer_entropy(found, a) == s
            assert table[cut_mask(n, a)] == s
            c = code_entropy(code, a)
            assert stabilizer_entropy(flat, a) == c
            assert code_table[cut_mask(n, a)] == c
            assert abs(entropy(code_sv, Bipartition(n, sites)) - c) < 1e-9
            # The two-rank formula on the generator, as an oracle.
            b = [j for j in range(n) if j not in a]
            g_a, g_b = (GfMatrix(code.gen.a[:, cols], code.gen.p) for cols in (a, b))
            assert c == rank(g_a) + rank(g_b) - code.k


def _ccz_on_plus():
    amps = np.full(8, 1.0)
    amps[7] = -1.0
    return normalized(3, 2, amps)


def _perturbed():
    amps = ame52_table1().amps.copy()
    amps[3] += 1e-8
    return normalized(5, 2, amps)


REJECTED = {
    "perturbed": _perturbed,
    "non_affine_support": lambda: normalized(3, 2, [1, 1, 1, 0, 1, 0, 0, 0]),
    "odd_support_size": lambda: normalized(3, 2, [1, 1, 1, 0, 0, 0, 0, 0]),
    # Support {1, 2, 3, 4}: the candidates 1 ^ 2 = 3 and 1 ^ 3 = 2 at sorted
    # positions 1 and 2 share a leading bit.
    "candidates_do_not_rise": lambda: normalized(3, 2, [0, 1, 1, 1, 1, 0, 0, 0]),
    # Support {0, 2, 4, 5, 6, 7, 8, 9}: the candidates 2, 4, 6 at positions 1, 2, 4
    # are dependent.
    "dependent_candidates": lambda: normalized(4, 2, [1, 0, 1, 0, 1, 1, 1, 1, 1, 1] + [0] * 6),
    "cubic_phase": _ccz_on_plus,
    "qutrits": ame43,
    # within check_normalized's 1e-9, outside recognition's 1e-12
    "unnormalised": lambda: StateVector(5, 2, ame52_table1().amps * (1 + 1e-10)),
}


def _moved(build, index, by=0.0, sign=1.0):
    """A built state with one amplitude scaled by `sign` and moved by `by`."""
    sv = build()
    amps = sv.amps.copy()
    amps[index] = sign * amps[index] + by
    return StateVector(sv.n, 2, amps)


@pytest.mark.parametrize(
    "build, index, by, sign, accepted",
    [
        # d1 has every amplitude on its support (k = n).
        (build_d1, 12345, 5e-13, 1.0, True),
        (build_d1, 12345, 2e-12, 1.0, False),
        (build_d1, 12345, 0.0, -1.0, False),
        # Index 1 is off d2's support of 256 points.
        (build_d2, 1, 5e-13, 1.0, True),
        (build_d2, 1, 2e-12, 1.0, False),
        (build_d2, 0, 0.0, -1.0, False),
    ],
)
def test_recognition_at_the_tolerance(build, index, by, sign, accepted):
    """RECOGNITION_TOL is 1e-12 in Euclidean distance from the ideal vector:
    the distance is summed on and off the support, and one wrong sign is
    2^(-k/2) away."""
    found = from_statevector(_moved(build, index, by, sign))
    assert (found is not None) == accepted
    if accepted:
        ideal = from_statevector(build())
        assert np.array_equal(found.amplitudes(), ideal.amplitudes())


def test_recognition_builds_no_ideal_vector():
    """Recognising d1 (k = n) or d2 (k < n) holds a few 2^20 bool vectors
    and one chunk of the distance sum, about 3 MiB: no 2^20 float temporary
    (8 MiB), let alone the 2^20-amplitude ideal vector (~25 MiB)."""
    for build in (build_d1, build_d2):
        sv = build()
        tracemalloc.start()
        try:
            found = from_statevector(sv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is not None and peak < 4 * 2**20, build.__name__


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_recognition_rejects(name):
    sv = REJECTED[name]()
    assert from_statevector(sv) is None
    (row,) = entropy_sweep(sv, [(1, "exhaustive")]).rows
    assert row.backend == "dense"
    assert entropy_engine(sv)[1] == "dense"


def test_recognition_rejects_zero_vector():
    assert from_statevector(StateVector(2, 2, np.zeros(4))) is None


def test_recognition_accepts_catalog_stabilizer_state():
    (row,) = entropy_sweep(ame52_table1(), [(2, "exhaustive")]).rows
    assert row.backend == "stabilizer" and row.values == [2.0]


@pytest.mark.parametrize("build, k", [(build_d1, 20), (build_d2, 8), (build_hovering, 10)])
def test_dodecahedron_states_are_recognised(build, k):
    sv = build()
    state = from_statevector(sv)
    assert state is not None and state.code.k == k
    # A few cuts per block size against the dense spectrum.
    for m in range(1, sv.n // 2 + 1):
        for bp in sample_partitions(sv.n, m, 2, seed=m):
            s = stabilizer_entropy(state, [x - 1 for x in bp.a_sites])
            assert abs(entropy(sv, bp) - s) < 1e-9


def _d2_code():
    return from_parity_checks(face_parity_matrix(platonic("dodecahedron")))


@pytest.mark.parametrize(
    "state",
    [lambda: from_statevector(build_hovering()), lambda: from_statevector(build_d1()), _d2_code],
    ids=["hovering", "d1", "d2-code"],
)
def test_table_matches_per_cut_rank(state):
    """The subset-count table of the check rows against the per-cut rank of
    the graph rows, on every cut of at most 6 or at least n - 6 sites (every
    cut of the 12-site state) and on 2,000 cuts, drawn with seed 16, of
    each block size in between."""
    qubits = state()
    n = len(qubits.check_rows)  # a complete set of checks: one row per site
    table = check_entropy_table(qubits.check_rows, n)
    assert table.shape == (1 << n,)
    for m in range(n + 1):
        if 6 < m < n - 6:
            cuts = [[s - 1 for s in bp.a_sites] for bp in sample_partitions(n, m, 2000, seed=16)]
        else:
            cuts = combinations(range(n), m)
        for a in cuts:
            mask = cut_mask(n, a)
            assert table[mask] == graph_entropy(qubits.graph_rows, a), a


def _site_beta(state):
    """Q's bilinear form read in site order, for a G with one 1 per row."""
    g, beta = state.form
    order = g.argmax(axis=1)
    assert g.sum() == len(g) == len(set(order.tolist()))
    out = np.zeros((state.code.n,) * 2, dtype=np.int64)
    out[np.ix_(order, order)] = beta
    return out


def test_d1_graph_is_its_quadratic_form():
    """d1's support is all 2^20 points under every reading, so its graph is
    Q's bilinear form in site order, and that is the mod-2 sum over the faces
    of the face tensor's form laid along each face's rotated cycle: on the
    default reading and 3 readings seeded from default_rng(7)."""
    face = _site_beta(from_statevector(ame52_table1()))
    pt = platonic("dodecahedron")
    rng = np.random.default_rng(7)
    for reading in [[0] * 12] + [rng.integers(0, 5, 12).tolist() for _ in range(3)]:
        state = from_statevector(build_d1(reading))
        assert state.code.k == 20
        adj = np.array([[r >> (19 - j) & 1 for j in range(20)] for r in state.graph_rows])
        assert np.array_equal(adj, _site_beta(state)), reading
        summed = np.zeros((20, 20), dtype=np.int64)
        for f, o in zip(pt.faces, reading):
            cyc = list(_oriented_cycle(f, o))
            summed[np.ix_(cyc, cyc)] += face
        assert np.array_equal(adj, summed % 2), reading


def test_engine_table_and_per_cut_calls_agree():
    """A call of at least 2^n / n cuts reads the table; single cuts rank."""
    sv = build_hovering()
    masks = exhaustive_masks(sv.n, sv.n // 2)
    entropies, backend = entropy_engine(sv)
    assert backend == "stabilizer"
    assert entropies(masks).tolist() == [entropies([x])[0] for x in masks.tolist()]


def test_d1_exhaustive_m6_census():
    entropies, backend = entropy_engine(build_d1())
    values = entropies(exhaustive_masks(20, 6))
    assert backend == "stabilizer"
    assert Counter(values.tolist()) == {5.0: 9, 6.0: 38751}


def test_d1_deficient_six_blocks_match_dense():
    """The engine's table finds exactly nine 6-blocks of d1 with entropy 5;
    the graph rank and the dense spectrum give 5 on each."""
    sv = build_d1()
    state = from_statevector(sv)
    masks = exhaustive_masks(20, 6)
    low = masks[entropy_engine(sv)[0](masks) == 5].tolist()
    assert len(low) == 9
    for mask in low:
        sites = [j for j in range(1, 21) if mask >> (20 - j) & 1]
        assert stabilizer_entropy(state, [s - 1 for s in sites]) == 5
        assert entropy(sv, Bipartition(20, sites)) == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize("sites", [(1, 6, 7, 11, 14, 16, 17, 20), (2, 5, 9, 10, 11, 12, 18, 19)])
def test_d1_m8_blocks_of_entropy_6(sites):
    """Two 8-blocks of d1 with entropy 6, below the recorded {7, 8}."""
    sv = build_d1()
    bp = Bipartition(20, sites)
    assert stabilizer_entropy(from_statevector(sv), [s - 1 for s in sites]) == 6
    assert entropy_engine(sv)[0]([sum(1 << (20 - s) for s in sites)]).tolist() == [6.0]
    assert entropy(sv, bp) == pytest.approx(6.0, abs=1e-9)


def test_hovering_balanced_cuts_match_dense():
    sv = build_hovering()
    bps = list(exhaustive_partitions(sv.n, sv.n // 2))
    entropies, backend = entropy_engine(sv)
    values = entropies(exhaustive_masks(sv.n, sv.n // 2))
    assert backend == "stabilizer"
    assert np.allclose(values, batch_entropies(sv, bps), atol=1e-9, rtol=0)
    assert set(values.tolist()) == {4.0, 5.0, 6.0}


def test_dense_oracle_never_calls_stabilizer(monkeypatch):
    def used(*args, **kwargs):
        raise RuntimeError("stabilizer path used")

    monkeypatch.setattr(stabilizer, "from_statevector", used)
    monkeypatch.setattr(stabilizer, "stabilizer_entropy", used)
    sv = ame52_table1()
    bps = list(exhaustive_partitions(5, 2))
    assert entropy(sv, bps[0]) == pytest.approx(2.0, abs=1e-9)
    assert batch_entropies(sv, bps) == pytest.approx([2.0] * 10, abs=1e-9)
    assert verify_ame(sv).ok
    # The routing point is the one caller.
    with pytest.raises(RuntimeError, match="stabilizer path used"):
        entropy_engine(sv)


def test_stabilizer_state_validates():
    code = LinearCodeState(2, 3, GfMatrix([[1, 1, 0]], 2))
    with pytest.raises(InvalidCode):
        StabilizerState(code, 8, np.zeros((1, 1)))  # shift beyond 3 qubits
    with pytest.raises(InvalidCode):
        StabilizerState(code, 0, np.zeros((2, 2)))  # Q of the wrong size
    with pytest.raises(InvalidCode):
        StabilizerState(code, 0, np.array([[2]]))  # not a 0/1 entry
    with pytest.raises(InvalidCode):
        StabilizerState(code, 0, np.zeros((1, 1)), q0=3)
    with pytest.raises(InvalidCode):
        StabilizerState(LinearCodeState(3, 3, GfMatrix([[1, 2, 0]], 3)), 0, np.zeros((1, 1)))
