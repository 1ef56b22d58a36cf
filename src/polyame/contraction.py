"""Tensor-network contraction of face tensors over a polytope.

Every vertex of the solid carries one agreement tensor gluing the ancilla
legs of the faces meeting there: the product of face amplitudes is taken
with all legs at a vertex forced to the same value. In vertex mode that
shared value is the physical spin; in hovering mode the vertex spins are
internal (summed over) and one extra site per face survives as the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidContraction, TooLarge, ZeroState
from .polytope import Polytope, face_parity_matrix, platonic
from .states import DENSE_BUDGET, StateVector, ame52_rotinv, ame52_table1, ame62


@dataclass(frozen=True)
class FaceAssignment:
    face_index: int
    tensor: StateVector
    orientation: int = 0


@dataclass(frozen=True)
class AgreementContraction:
    polytope: Polytope
    assignments: tuple[FaceAssignment, ...]
    mode: str = "vertex"  # or "hovering"

    def __post_init__(self):
        if self.mode not in ("vertex", "hovering"):
            raise InvalidContraction(f"unknown contraction mode {self.mode!r}")
        faces = sorted(a.face_index for a in self.assignments)
        if faces != list(range(self.polytope.face_count)):
            raise InvalidContraction(
                f"assignments cover faces {faces}, not each of the "
                f"{self.polytope.face_count} faces once"
            )


def _oriented_cycle(face: Sequence[int], orientation: int) -> tuple[int, ...]:
    """The face cycle rotated so reading starts `orientation` steps along."""
    k = orientation % len(face)
    return tuple(face[k:]) + tuple(face[:k])


def _face_index_arrays(pt: Polytope, assignments, d: int) -> list[np.ndarray]:
    """For each face, the flat index into its tensor as a function of the
    global basis index (vectorized over all d^V global indices)."""
    v_count = pt.vertex_count
    total = d**v_count
    idx = np.arange(total, dtype=np.int64)
    digit = [(idx // d ** (v_count - 1 - v)) % d for v in range(v_count)]
    out = []
    for fa in assignments:
        cyc = _oriented_cycle(pt.faces[fa.face_index], fa.orientation)
        f_idx = np.zeros(total, dtype=np.int64)
        for pos, v in enumerate(cyc):
            f_idx = f_idx * d + digit[v]
        out.append(f_idx)
    return out


def _contract_vertex(ac: AgreementContraction) -> StateVector:
    pt = ac.polytope
    d = ac.assignments[0].tensor.d
    if d**pt.vertex_count > DENSE_BUDGET:
        raise TooLarge(
            f"vertex-mode output d^V = {d}^{pt.vertex_count} exceeds {DENSE_BUDGET}"
        )
    amps = np.ones(d**pt.vertex_count, dtype=np.float64)
    for fa, f_idx in zip(ac.assignments, _face_index_arrays(pt, ac.assignments, d)):
        amps *= fa.tensor.amps[f_idx]
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise ZeroState("contraction annihilated all amplitudes")
    return StateVector(pt.vertex_count, d, amps / nrm)


def _hover_axis_order(tensor: StateVector, hover_position: int) -> np.ndarray:
    """Face tensor as an ndarray with axes (cycle pos 0..4, hover) given the
    1-based position of the hovering site within the tensor's sites."""
    n, d = tensor.n, tensor.d
    h = hover_position - 1
    cell_axes = [j for j in range(n) if j != h] + [h]
    return tensor.amps.reshape((d,) * n).transpose(cell_axes)


def _broadcast_to_union(t: np.ndarray, t_axes: list, union: list) -> np.ndarray:
    """View of t with dims ordered/padded to the union axis list (size-1 dims
    where an axis of the union is absent from t)."""
    pos = [union.index(ax) for ax in t_axes]
    t_sorted = t.transpose(np.argsort(pos))
    shape = [1] * len(union)
    for p, size in zip(sorted(pos), t_sorted.shape):
        shape[p] = size
    return t_sorted.reshape(shape)


def _contract_hovering_eliminate(
    ac: AgreementContraction, hover_position: int, face_order: Sequence[int]
) -> np.ndarray:
    """Face-by-face elimination: multiply face tensors along shared open
    vertex axes (the agreement tensor makes this a diagonal product, not a
    contraction), summing out each vertex once all its faces are absorbed.
    Returns the unnormalized hover array with axes ordered by face index.
    """
    pt = ac.polytope
    remaining = [0] * pt.vertex_count
    for f in pt.faces:
        for v in f:
            remaining[v] += 1

    cur = np.ones((), dtype=np.float64)
    cur_axes: list[tuple[str, int]] = []  # ('v', vertex) or ('h', face)
    by_face = {fa.face_index: fa for fa in ac.assignments}
    for a in face_order:
        fa = by_face[a]
        cyc = _oriented_cycle(pt.faces[a], fa.orientation)
        t = _hover_axis_order(fa.tensor, hover_position)
        t_axes = [("v", v) for v in cyc] + [("h", a)]
        union = cur_axes + [ax for ax in t_axes if ax not in cur_axes]
        cur = cur.reshape(cur.shape + (1,) * (len(union) - len(cur_axes)))
        cur = cur * _broadcast_to_union(t, t_axes, union)
        cur_axes = union
        for v in cyc:
            remaining[v] -= 1
            if remaining[v] == 0:
                ax = cur_axes.index(("v", v))
                cur = cur.sum(axis=ax)
                cur_axes.pop(ax)
    assert all(r == 0 for r in remaining)
    assert all(kind == "h" for kind, _ in cur_axes)
    return cur.transpose(np.argsort([a for _, a in cur_axes]))


def _contract_hovering(
    ac: AgreementContraction, hover_position: int, face_order: Optional[Sequence[int]]
) -> StateVector:
    pt = ac.polytope
    d = ac.assignments[0].tensor.d
    if d**pt.face_count > DENSE_BUDGET:
        raise TooLarge(
            f"hovering output d^F = {d}^{pt.face_count} exceeds {DENSE_BUDGET}"
        )
    if face_order is None:
        face_order = list(range(pt.face_count))
    arr = _contract_hovering_eliminate(ac, hover_position, face_order)
    amps = arr.reshape(-1)
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise ZeroState("contraction annihilated all amplitudes")
    return StateVector(pt.face_count, d, amps / nrm)


def contract(
    ac: AgreementContraction,
    hover_position: int = 6,
    face_order: Optional[Sequence[int]] = None,
) -> StateVector:
    """Contract the network. Vertex mode outputs one site per vertex; hovering
    mode one site per face (vertex spins are summed out)."""
    if ac.mode == "vertex":
        return _contract_vertex(ac)
    return _contract_hovering(ac, hover_position, face_order)


def hovering_accumulate_reference(
    ac: AgreementContraction, hover_position: int = 6, chunk: int = 2048
) -> StateVector:
    """Brute-force reference for hovering mode: accumulate, over every vertex
    configuration, the rank-1 product of per-face coefficient pairs into the
    d^F hover array. Slow (about d^(V+F) multiply-adds); used to validate the
    elimination path."""
    pt = ac.polytope
    d = ac.assignments[0].tensor.d
    if d != 2:
        raise InvalidContraction(f"reference accumulation is implemented for qubits, not d = {d}")
    v_count, f_count = pt.vertex_count, pt.face_count
    coeff = []  # per face: (2^V,) arrays for h = 0 and h = 1
    idx_arrays = _face_index_arrays(pt, ac.assignments, d)
    for fa, f_idx in zip(ac.assignments, idx_arrays):
        t = _hover_axis_order(fa.tensor, hover_position).reshape(-1, d)
        coeff.append((t[f_idx, 0], t[f_idx, 1]))
    out = np.zeros(2**f_count, dtype=np.float64)
    total = 2**v_count
    for start in range(0, total, chunk):
        sl = slice(start, min(start + chunk, total))
        block = np.ones((sl.stop - sl.start, 1), dtype=np.float64)
        for c0, c1 in coeff:
            pair = np.stack([c0[sl], c1[sl]], axis=1)  # (chunk, 2)
            block = (block[:, :, None] * pair[:, None, :]).reshape(block.shape[0], -1)
        out += block.sum(axis=0)
    nrm = np.linalg.norm(out)
    if nrm == 0:
        raise ZeroState("contraction annihilated all amplitudes")
    return StateVector(f_count, d, out / nrm)


def _assign_all(pt: Polytope, tensor: StateVector, orientations) -> tuple:
    if orientations is None:
        orientations = [0] * pt.face_count
    if len(orientations) != pt.face_count:
        raise ValueError(f"need {pt.face_count} orientations")
    return tuple(
        FaceAssignment(a, tensor, int(o)) for a, o in enumerate(orientations)
    )


def build_d1(
    orientations: Optional[Sequence[int]] = None, variant: str = "table1"
) -> StateVector:
    """The 20-qubit dodecahedron state from one 5-qubit perfect state per
    pentagon, read along each face cycle (rotated by the per-face orientation).
    All 2^20 amplitudes have magnitude 1/sqrt(2^20) for the tabulated variant.
    """
    tensor = {"table1": ame52_table1, "rotinv": ame52_rotinv}[variant]()
    pt = platonic("dodecahedron")
    ac = AgreementContraction(pt, _assign_all(pt, tensor, orientations), "vertex")
    return contract(ac)


def build_d2() -> StateVector:
    """The 20-qubit dodecahedron state from the cyclically invariant AME(5,2):
    a uniform superposition over the 2^8 spin configurations with even parity
    on every pentagon."""
    return build_d1(variant="rotinv")


def sign_lemma_check() -> bool:
    """For every configuration satisfying all pentagon parities, the product
    of the per-pentagon signs (-1)^(sum_j s_j s_j+1) equals +1."""
    from .codes import codewords, from_parity_checks

    pt = platonic("dodecahedron")
    code = from_parity_checks(face_parity_matrix(pt))
    for word in codewords(code):
        eta = 0
        for f in pt.faces:
            eta += sum(word[f[j]] * word[f[(j + 1) % 5]] for j in range(5))
        if eta % 2 != 0:
            return False
    return True


def build_hovering(
    hover_position: int = 6,
    orientations: Optional[Sequence[int]] = None,
    face_order: Optional[Sequence[int]] = None,
) -> StateVector:
    """The 12-qubit state with one 6-qubit perfect state per pentagon: five
    sites glued to the pentagon's vertices, the site at `hover_position`
    (1-based, default the last) kept as the physical qubit of that face."""
    if not 1 <= hover_position <= 6:
        raise ValueError("hover_position must be in 1..6")
    pt = platonic("dodecahedron")
    ac = AgreementContraction(
        pt, _assign_all(pt, ame62(), orientations), "hovering"
    )
    return contract(ac, hover_position=hover_position, face_order=face_order)
