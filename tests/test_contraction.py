"""Agreement-tensor contraction over polytopes: the two dodecahedron states
and the hovering mode."""

import numpy as np
import pytest

from polyame.codes import dense_statevector, from_parity_checks
from polyame.contraction import (
    AgreementContraction,
    FaceAssignment,
    _assign_all,
    _oriented_cycle,
    build_d1,
    build_d2,
    build_hovering,
    contract,
    hovering_accumulate_reference,
    sign_lemma_check,
)
from polyame.entropy import Bipartition, entropy, sample_partitions
from polyame.errors import InvalidContraction, ZeroState
from polyame.polytope import face_parity_matrix, platonic
from polyame.states import ame43, digits_of, normalized


def test_oriented_cycle():
    f = (10, 11, 12, 13, 14)
    assert _oriented_cycle(f, 0) == f
    assert _oriented_cycle(f, 2) == (12, 13, 14, 10, 11)
    assert _oriented_cycle(f, 7) == (12, 13, 14, 10, 11)


def test_d1_is_flat():
    sv = build_d1()
    assert (sv.n, sv.d) == (20, 2)
    assert abs(sv.norm - 1.0) < 1e-9
    scale = 1.0 / np.sqrt(2.0**20)
    assert np.allclose(np.abs(sv.amps), scale, atol=1e-15)
    assert sv.amps[0] > 0  # all-zeros amplitude is positive


def test_d1_orientation_changes_signs_only():
    sv = build_d1([1] + [0] * 11)
    scale = 1.0 / np.sqrt(2.0**20)
    assert np.allclose(np.abs(sv.amps), scale, atol=1e-15)
    assert not np.array_equal(sv.amps, build_d1().amps)


def test_d1_sampled_six_blocks_all_maximal():
    # 2000 seeded six-site blocks of the default build all reach entropy 6
    sv = build_d1()
    for bp in sample_partitions(20, 6, 2000, seed=1):
        assert abs(entropy(sv, bp) - 6.0) <= 1e-9


def test_d2_equals_parity_code_state():
    sv = build_d2()
    code = from_parity_checks(face_parity_matrix(platonic("dodecahedron")))
    assert np.array_equal(sv.amps, dense_statevector(code).amps)
    assert sv.support_size() == 256
    assert np.allclose(sv.amps[np.abs(sv.amps) > 0], 1 / 16.0)


def test_d2_reading_invariance():
    """The cyclically invariant face tensor gives the same 20-qubit state for
    every choice of per-face cycle offsets."""
    base = build_d2()
    rng = np.random.default_rng(41)
    for _ in range(3):
        offsets = [int(x) for x in rng.integers(0, 5, 12)]
        sv = build_d1(offsets, variant="rotinv")
        assert np.array_equal(sv.amps, base.amps)


def test_sign_lemma():
    assert sign_lemma_check()


def test_vertex_mode_zero_state():
    # one-hot face tensors force every face to read weight 1, which cannot
    # hold simultaneously on the tetrahedron (each vertex sits on 3 faces)
    w = normalized(3, 2, [0, 1, 1, 0, 1, 0, 0, 0])
    pt = platonic("tetrahedron")
    ac = AgreementContraction(pt, _assign_all(pt, w, None), "vertex")
    with pytest.raises(ZeroState):
        contract(ac)


def test_assignment_validation():
    pt = platonic("tetrahedron")
    with pytest.raises(ValueError):
        _assign_all(pt, ame43(), [0, 1])
    with pytest.raises(InvalidContraction):  # face 0 four times
        AgreementContraction(
            pt, tuple(FaceAssignment(0, ame43(), 0) for _ in range(4)), "vertex"
        )


_TETRA = platonic("tetrahedron")
_EVERY_FACE = _assign_all(_TETRA, ame43(), None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: AgreementContraction(_TETRA, _EVERY_FACE, "edge"),
        lambda: AgreementContraction(_TETRA, _EVERY_FACE[:3], "vertex"),
        # the brute-force reference takes qubit tensors only
        lambda: hovering_accumulate_reference(
            AgreementContraction(_TETRA, _EVERY_FACE, "hovering")
        ),
    ],
    ids=["unknown_mode", "face_missing", "qutrit_reference"],
)
def test_contraction_rejects_bad_input(make):
    """Validation that must survive `python -O`: raised, not asserted."""
    with pytest.raises(InvalidContraction):
        make()


def test_hovering_shape_and_order_independence():
    sv = build_hovering()
    assert (sv.n, sv.d) == (12, 2)
    rev = build_hovering(face_order=list(reversed(range(12))))
    assert np.max(np.abs(sv.amps - rev.amps)) < 1e-12
    rng = np.random.default_rng(43)
    shuffled = build_hovering(face_order=[int(x) for x in rng.permutation(12)])
    assert np.max(np.abs(sv.amps - shuffled.amps)) < 1e-12


def test_hovering_position_validation():
    with pytest.raises(ValueError):
        build_hovering(hover_position=0)
    with pytest.raises(ValueError):
        build_hovering(hover_position=7)


def _brute_hovering(pt, tensor, hover_position):
    """Independent accumulation: loop global vertex configurations, multiply
    per-face coefficients, accumulate into the d^F hover array."""
    d, v, f_count = tensor.d, pt.vertex_count, pt.face_count
    out = np.zeros(d**f_count)
    h = hover_position - 1
    for cfg in range(d**v):
        digits = digits_of(cfg, v, d)
        per_face = []
        for f in pt.faces:
            vals = [digits[x] for x in f]
            per_face.append(
                [
                    tensor.amplitude(tuple(vals[:h]) + (hv,) + tuple(vals[h:]))
                    for hv in range(d)
                ]
            )
        block = np.ones(1)
        for coeffs in per_face:
            block = np.kron(block, np.array(coeffs))
        out += block
    return out / np.linalg.norm(out)


def test_hovering_matches_brute_force_small():
    """Tetrahedron with the 4-qutrit perfect tensor: the elimination-based
    contraction equals a direct sum over all vertex configurations."""
    pt = platonic("tetrahedron")
    t = ame43()
    for hover_position in (1, 4):
        ac = AgreementContraction(pt, _assign_all(pt, t, None), "hovering")
        got = contract(ac, hover_position=hover_position)
        want = _brute_hovering(pt, t, hover_position)
        assert np.max(np.abs(got.amps - want)) < 1e-12


def test_hovering_entropies_are_integers():
    sv = build_hovering()
    rng = np.random.default_rng(47)
    for _ in range(25):
        m = int(rng.integers(1, 7))
        sites = tuple(int(s) for s in sorted(rng.choice(12, size=m, replace=False) + 1))
        s = entropy(sv, Bipartition(12, sites))
        assert abs(s - round(s)) < 1e-9


def test_vertex_tensor_reading_uses_cycle_order():
    """A one-face network with a one-hot tensor pins exactly the word read
    along the stored cycle, rotated by the orientation offset."""
    from polyame.polytope import Polytope

    pt = Polytope("triangle", 3, ((0, 1, 2),))
    coeffs = np.zeros(8)
    coeffs[int("011", 2)] = 1.0  # the tensor fires on reading (0, 1, 1)
    t = normalized(3, 2, coeffs)
    sv = contract(
        AgreementContraction(pt, (FaceAssignment(0, t, 0),), "vertex")
    )
    assert sv.support_size() == 1
    assert sv.amplitude((0, 1, 1)) == pytest.approx(1.0)
    # offset 1 reads the cycle starting at vertex 1: (v1, v2, v0) = (0, 1, 1)
    sv1 = contract(
        AgreementContraction(pt, (FaceAssignment(0, t, 1),), "vertex")
    )
    assert sv1.support_size() == 1
    assert sv1.amplitude((1, 0, 1)) == pytest.approx(1.0)
