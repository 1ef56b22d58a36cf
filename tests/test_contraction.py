"""Agreement-tensor contraction over polytopes: the two dodecahedron states
and the hovering mode."""

from collections import Counter

import numpy as np
import pytest

from polyame import contraction
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
from polyame.errors import InvalidContraction, TooLarge, ZeroState
from polyame.polytope import Polytope, face_parity_matrix, platonic
from polyame.states import StateVector, ame43, ame52_table1, ame62, digits_of, normalized


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
_DODECA = platonic("dodecahedron")
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
        # a 6-site tensor on pentagons in vertex mode, a 5-site one in hovering mode
        lambda: AgreementContraction(_DODECA, _assign_all(_DODECA, ame62(), None), "vertex"),
        lambda: AgreementContraction(
            _DODECA, _assign_all(_DODECA, ame52_table1(), None), "hovering"
        ),
        lambda: AgreementContraction(
            _TETRA,
            _assign_all(_TETRA, normalized(3, 2, [1] * 8), None)[:3]
            + (FaceAssignment(3, normalized(3, 3, [1] * 27)),),
            "vertex",
        ),
        lambda: contract(
            AgreementContraction(_TETRA, _EVERY_FACE, "hovering"), hover_position=0
        ),
        lambda: contract(
            AgreementContraction(_DODECA, _assign_all(_DODECA, ame62(), None), "hovering"),
            hover_position=9,
        ),
        lambda: contract(
            AgreementContraction(_TETRA, _EVERY_FACE, "hovering"),
            hover_position=4,
            face_order=[0, 1, 2, 2],
        ),
        # 30 one-vertex faces: 60 axes, beyond einsum's 52 labels
        lambda: contract(
            AgreementContraction(
                Polytope("dots", 30, tuple((v,) for v in range(30))),
                tuple(FaceAssignment(v, normalized(1, 2, [1, 1])) for v in range(30)),
                "vertex",
            )
        ),
    ],
    ids=[
        "unknown_mode",
        "face_missing",
        "qutrit_reference",
        "vertex_sites",
        "hovering_sites",
        "mixed_d",
        "hover_position_0",
        "hover_position_9",
        "face_order",
        "too_many_axes",
    ],
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


def _brute(pt, assignments, mode, hover_position=None):
    """Independent sum over all vertex configurations: each face reads its
    vertices along its cycle, rotated by its orientation. Vertex mode keeps
    the product of face amplitudes at the configuration's index; hovering
    mode accumulates the Kronecker product of per-face coefficient vectors
    (one per value of the hovering site) into the d^F array."""
    d, v = assignments[0].tensor.d, pt.vertex_count
    out = np.zeros(d ** (v if mode == "vertex" else pt.face_count))
    for cfg in range(d**v):
        digits = digits_of(cfg, v, d)
        block = np.ones(1)
        for fa in sorted(assignments, key=lambda fa: fa.face_index):
            f = pt.faces[fa.face_index]
            k = fa.orientation % len(f)
            vals = tuple(digits[x] for x in f[k:] + f[:k])
            t = fa.tensor.amps.reshape((d,) * fa.tensor.n)
            if mode == "vertex":
                block = block * t[vals]
            else:
                h = hover_position - 1
                block = np.multiply.outer(block, t[vals[:h] + (slice(None),) + vals[h:]]).ravel()
        if mode == "vertex":
            out[cfg] = block[0]
        else:
            out += block
    return out / np.linalg.norm(out)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("solid", ["tetrahedron", "hexahedron", "octahedron"])
def test_contraction_matches_brute_force(solid, d):
    """Random real face tensors (one per face) and seeded orientations: both
    modes, and every hover position, equal a direct sum over all vertex
    configurations, and so does the chunked qubit reference, whatever the
    order in which the assignments are listed."""
    pt = platonic(solid)
    rng = np.random.default_rng(101 + 10 * d + pt.face_count)
    size = len(pt.faces[0])

    def assignments(sites):
        return tuple(
            FaceAssignment(
                a,
                normalized(sites, d, rng.standard_normal(d**sites)),
                int(rng.integers(0, size)),
            )
            for a in range(pt.face_count)
        )

    fas = assignments(size)
    got = contract(AgreementContraction(pt, fas, "vertex"))
    assert got.n == pt.vertex_count
    assert np.max(np.abs(got.amps - _brute(pt, fas, "vertex"))) < 1e-12
    fas = assignments(size + 1)
    ac = AgreementContraction(pt, fas, "hovering")
    for hover_position in range(1, size + 2):
        got = contract(ac, hover_position=hover_position)
        assert got.n == pt.face_count
        want = _brute(pt, fas, "hovering", hover_position)
        assert np.max(np.abs(got.amps - want)) < 1e-12
        if d == 2:  # the reference takes qubits; a chunk of 5 splits the configurations unevenly
            listed_backwards = AgreementContraction(pt, fas[::-1], "hovering")
            ref = hovering_accumulate_reference(listed_backwards, hover_position, chunk=5)
            assert np.max(np.abs(ref.amps - want)) < 1e-12


def test_budget_holds_every_intermediate(monkeypatch):
    """The budget covers every array the contraction holds. The
    dodecahedron's qubit hovering output has 2^12 amplitudes, and each face
    step sums out the vertices it closes, so the default order holds at most
    2^18: it contracts under a 2^18 budget, to the same amplitudes, and a
    2^17 or 2^12 budget rejects it. The octahedron's hovering intermediates
    stay within 2^11, so it still contracts under 2^12."""
    want = build_hovering()
    monkeypatch.setattr(contraction, "DENSE_BUDGET", 2**18)
    assert np.array_equal(build_hovering().amps, want.amps)
    for budget in (2**17, 2**12):
        monkeypatch.setattr(contraction, "DENSE_BUDGET", budget)
        with pytest.raises(TooLarge):
            build_hovering()
    octa = platonic("octahedron")
    fas = _assign_all(octa, normalized(4, 2, [1] * 16), None)
    assert contract(AgreementContraction(octa, fas, "hovering"), hover_position=4).n == 8


def test_budget_holds_vertex_mode(monkeypatch):
    """d1's last face steps hold all 2^20 output amplitudes: a 2^19 budget
    rejects the build, and a 2^20 one gives the same bits."""
    want = build_d1()
    monkeypatch.setattr(contraction, "DENSE_BUDGET", 2**19)
    with pytest.raises(TooLarge):
        build_d1()
    monkeypatch.setattr(contraction, "DENSE_BUDGET", 2**20)
    assert np.array_equal(build_d1().amps, want.amps)


def _einsum_steps(ac, hover_position=6, face_order=None):
    """`contract` with every face step one einsum, whether or not it sums:
    the kernel that the in-place product steps must match bit for bit."""
    pt, d = ac.polytope, ac.assignments[0].tensor.d
    remaining = Counter(v for f in pt.faces for v in f)
    cur, cur_axes = np.ones(()), []
    by_face = {fa.face_index: fa for fa in ac.assignments}
    for a in range(pt.face_count) if face_order is None else face_order:
        fa = by_face[a]
        cyc = _oriented_cycle(pt.faces[a], fa.orientation)
        t_axes = list(cyc)
        if ac.mode == "hovering":
            t_axes.insert(hover_position - 1, pt.vertex_count + a)
        remaining.subtract(cyc)
        closed = {v for v in cyc if remaining[v] == 0} if ac.mode == "hovering" else set()
        out_axes = sorted(set(cur_axes).union(t_axes) - closed)
        t = fa.tensor.amps.reshape((d,) * fa.tensor.n)
        cur = np.einsum(cur, cur_axes, t, t_axes, out_axes, optimize=True)
        cur_axes = out_axes
    amps = cur.reshape(-1)  # C order, as the norm is summed over it
    return amps / np.linalg.norm(amps)


def _random_faces(pt, sites, d, rng, writeable=True):
    fas = []
    for a in range(pt.face_count):
        amps = normalized(sites, d, rng.standard_normal(d**sites)).amps
        amps.flags.writeable = writeable
        fas.append(FaceAssignment(a, StateVector(sites, d, amps), int(rng.integers(0, 5))))
    return tuple(fas)


@pytest.mark.parametrize(
    "solid, d",
    [("dodecahedron", 2), ("tetrahedron", 3), ("hexahedron", 3), ("octahedron", 3)],
)
def test_contract_matches_einsum_steps_bit_for_bit(solid, d):
    """Random real face tensors, seeded orientations and face orders, both
    modes and a seeded hover position: the product steps round exactly as
    einsum does, so the amplitudes are equal, not merely close. Random
    tensors make any other order of multiplication round differently."""
    pt = platonic(solid)
    size = len(pt.faces[0])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for mode, sites in (("vertex", size), ("hovering", size + 1)):
            ac = AgreementContraction(pt, _random_faces(pt, sites, d, rng), mode)
            order = [int(a) for a in rng.permutation(pt.face_count)]
            kw = {"hover_position": int(rng.integers(1, sites + 1))} if mode == "hovering" else {}
            got = contract(ac, face_order=order, **kw)
            assert np.array_equal(got.amps, _einsum_steps(ac, face_order=order, **kw)), (mode, seed)


def test_contraction_never_writes_its_inputs():
    """Read-only face tensors contract to the same bits as writeable ones."""
    pt = platonic("dodecahedron")
    table = ame52_table1().amps.copy()
    table.flags.writeable = False
    read_only = StateVector(5, 2, table)
    ac = AgreementContraction(pt, _assign_all(pt, read_only, [1, 2, 3, 4, 0] * 2 + [1, 1]), "vertex")
    want = build_d1([1, 2, 3, 4, 0] * 2 + [1, 1])
    assert np.array_equal(contract(ac).amps, want.amps)
    for mode, sites in (("vertex", 5), ("hovering", 6)):
        rng = np.random.default_rng(7)
        ac = AgreementContraction(pt, _random_faces(pt, sites, 2, rng, writeable=False), mode)
        rng = np.random.default_rng(7)
        writeable = AgreementContraction(pt, _random_faces(pt, sites, 2, rng), mode)
        assert np.array_equal(contract(ac).amps, contract(writeable).amps)


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
