"""Stabilizer-form entropy engine: the rank formula against dense spectra,
recognition of dense vectors, and the routing of sweeps."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyame import stabilizer
from polyame.codes import LinearCodeState, code_entropy
from polyame.contraction import build_d1, build_d2, build_hovering
from polyame.entropy import (
    Bipartition,
    batch_entropies,
    entropy,
    entropy_engine,
    entropy_sweep,
    exhaustive_partitions,
    sample_partitions,
    verify_ame,
)
from polyame.errors import InvalidCode
from polyame.gf import GfMatrix, rref
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


@settings(max_examples=60, deadline=None)
@given(stabilizer_states())
def test_rank_formula_matches_dense_spectrum(state):
    n = state.code.n
    sv = StateVector(n, 2, state.amplitudes())
    found = from_statevector(sv)
    assert found is not None and found.code.k == state.code.k
    flat = StabilizerState(state.code, state.shift, np.zeros_like(state.q))
    for m in range(1, n):
        for sites in combinations(range(1, n + 1), m):
            a = [s - 1 for s in sites]
            s = stabilizer_entropy(state, a)
            assert abs(entropy(sv, Bipartition(n, sites)) - s) < 1e-9
            assert stabilizer_entropy(found, a) == s
            assert stabilizer_entropy(flat, a) == code_entropy(state.code, a)


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
    "cubic_phase": _ccz_on_plus,
    "qutrits": ame43,
    # within check_normalized's 1e-9, outside recognition's 1e-12
    "unnormalised": lambda: StateVector(5, 2, ame52_table1().amps * (1 + 1e-10)),
}


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


def test_hovering_balanced_cuts_match_dense():
    sv = build_hovering()
    bps = list(exhaustive_partitions(sv.n, sv.n // 2))
    entropies, backend = entropy_engine(sv)
    values = entropies(bps)
    assert backend == "stabilizer"
    assert np.allclose(values, batch_entropies(sv, bps), atol=1e-9, rtol=0)
    assert set(values) == {4.0, 5.0, 6.0}


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
