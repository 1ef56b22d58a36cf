"""Tensor-network contraction of face tensors over a polytope.

Every vertex of the solid carries one agreement tensor gluing the ancilla
legs of the faces meeting there: the product of face amplitudes is taken
with all legs at a vertex forced to the same value. In vertex mode that
shared value is the physical spin; in hovering mode the vertex spins are
internal (summed over) and one extra site per face survives as the output.
`contract` absorbs the faces one at a time. A face step that closes a vertex
is one einsum that also sums that vertex out, so it never holds a pre-sum
product; a step that closes none sums nothing and is an in-place broadcast
product (`_product`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
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
        extra = int(self.mode == "hovering")  # the hovering site
        for fa in self.assignments:
            sites = len(self.polytope.faces[fa.face_index]) + extra
            if fa.tensor.n != sites:
                raise InvalidContraction(
                    f"face {fa.face_index} needs a {sites}-site tensor in "
                    f"{self.mode} mode, not {fa.tensor.n} sites"
                )
        if len({fa.tensor.d for fa in self.assignments}) != 1:
            raise InvalidContraction("face tensors of different local dimensions")


def _oriented_cycle(face: Sequence[int], orientation: int) -> tuple[int, ...]:
    """The face cycle rotated so reading starts `orientation` steps along."""
    k = orientation % len(face)
    return tuple(face[k:]) + tuple(face[:k])


def _hover_axis_order(tensor: StateVector, hover_position: int) -> np.ndarray:
    """Face tensor as an ndarray with axes (cycle pos 0..4, hover) given the
    1-based position of the hovering site within the tensor's sites."""
    n, d = tensor.n, tensor.d
    h = hover_position - 1
    cell_axes = [j for j in range(n) if j != h] + [h]
    return tensor.amps.reshape((d,) * n).transpose(cell_axes)


# Longest run of trailing output axes, in amplitudes, that `_product` merges
# into one contiguous axis: numpy's inner loop runs along it, and the face
# tensor is expanded over it to at most d^sites * PRODUCT_RUN entries.
PRODUCT_RUN = 2**10


def _product(cur, cur_axes, t, t_axes, out_axes) -> np.ndarray:
    """cur * t over `out_axes`, the sorted union of the two arrays' axes,
    with nothing summed: each amplitude is the one product einsum forms.
    The output is allocated only if t opens axes cur lacks (or cur must
    change dtype, or is an einsum result that is not C-ordered), and cur is
    copied in once per value of those axes; otherwise cur itself is
    multiplied in place. The trailing axes, merged into one run of at most
    PRODUCT_RUN amplitudes, carry t expanded over them, so the broadcast
    multiply's inner loop is that run, not one axis of length d."""
    d, m = t.shape[0], len(out_axes)
    dtype = np.result_type(cur, t)
    new = [i for i, ax in enumerate(out_axes) if ax not in cur_axes]
    if new or cur.dtype != dtype or not cur.flags.c_contiguous:
        out = np.empty((d,) * m, dtype=dtype)
        idx = [slice(None)] * m
        for vals in product(range(d), repeat=len(new)):
            for i, v in zip(new, vals):
                idx[i] = v
            out[tuple(idx)] = cur
    else:
        out = cur
    r = 0
    while r < m and d ** (r + 1) <= PRODUCT_RUN:
        r += 1
    shape = [d if ax in t_axes else 1 for ax in out_axes]
    lead = shape[: m - r]
    t_sorted = t.transpose(np.argsort(t_axes)).reshape(shape)
    expanded = np.broadcast_to(t_sorted, lead + [d] * r).reshape(lead + [d**r])
    runs = out.reshape((d,) * (m - r) + (d**r,))
    np.multiply(runs, expanded, out=runs)
    return out


def contract(
    ac: AgreementContraction,
    hover_position: int = 6,
    face_order: Optional[Sequence[int]] = None,
) -> StateVector:
    """Contract the network face by face, in `face_order` (default: by face
    index). Each oriented face tensor is absorbed into the running array:
    the agreement tensor makes it a diagonal product over the union of
    their open axes. A step that closes a vertex (hovering mode only) is one
    einsum that also sums out every vertex it closes, so no pre-sum product
    is ever built; a step that closes none is `_product`, in place.
    Vertex mode outputs one site per vertex. Hovering mode outputs one site
    per face: the site at `hover_position` (1-based) of each face tensor.
    Every array the contraction holds is within DENSE_BUDGET amplitudes."""
    pt = ac.polytope
    d = ac.assignments[0].tensor.d
    hovering = ac.mode == "hovering"
    face_order = list(range(pt.face_count) if face_order is None else face_order)
    if sorted(face_order) != list(range(pt.face_count)):
        raise InvalidContraction(f"face order {face_order} is not a permutation of the faces")
    if hovering and not all(1 <= hover_position <= len(f) + 1 for f in pt.faces):
        raise InvalidContraction(
            f"hover_position {hover_position} is not a site of every face tensor"
        )
    # Axis labels: vertex v is v, the hovering site of face a is V + a.
    if pt.vertex_count + pt.face_count > 52:
        raise InvalidContraction(
            f"{pt.vertex_count} vertices and {pt.face_count} faces exceed einsum's 52 labels"
        )
    remaining = [0] * pt.vertex_count
    for f in pt.faces:
        for v in f:
            remaining[v] += 1

    cur = np.ones((), dtype=np.float64)
    cur_axes: list[int] = []  # sorted, so the output needs no transpose
    by_face = {fa.face_index: fa for fa in ac.assignments}
    for a in face_order:
        fa = by_face[a]
        cyc = _oriented_cycle(pt.faces[a], fa.orientation)
        t_axes = list(cyc)
        if hovering:
            t_axes.insert(hover_position - 1, pt.vertex_count + a)
        for v in cyc:
            remaining[v] -= 1
        closed = {v for v in cyc if remaining[v] == 0} if hovering else set()
        out_axes = sorted(set(cur_axes).union(t_axes) - closed)
        if d ** len(out_axes) > DENSE_BUDGET:
            raise TooLarge(
                f"{ac.mode}-mode intermediate d^{len(out_axes)} = {d}^{len(out_axes)} "
                f"exceeds {DENSE_BUDGET}"
            )
        t = fa.tensor.amps.reshape((d,) * fa.tensor.n)
        if closed:
            cur = np.einsum(cur, cur_axes, t, t_axes, out_axes, optimize=True)
        else:
            cur = _product(cur, cur_axes, t, t_axes, out_axes)
        cur_axes = out_axes
    amps = cur.reshape(-1)
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise ZeroState("contraction annihilated all amplitudes")
    amps /= nrm
    return StateVector(len(cur_axes), d, amps)


def hovering_accumulate_reference(
    ac: AgreementContraction, hover_position: int = 6, chunk: int = 2048
) -> StateVector:
    """Brute-force reference for hovering mode: a sum, over every vertex
    configuration, of the rank-1 product of per-face coefficient pairs in the
    d^F hover array. The faces split into two halves; for each chunk of
    configurations, the Kronecker rows A and B of each half's pairs give
    that chunk's sum as one matrix product A^T B. No vertex is eliminated,
    so it checks the contraction independently (2^V configurations)."""
    pt = ac.polytope
    d = ac.assignments[0].tensor.d
    if d != 2:
        raise InvalidContraction(f"reference accumulation is implemented for qubits, not d = {d}")
    v_count, f_count = pt.vertex_count, pt.face_count
    faces = [
        (_oriented_cycle(pt.faces[fa.face_index], fa.orientation),
         _hover_axis_order(fa.tensor, hover_position).reshape(-1, d))
        for fa in sorted(ac.assignments, key=lambda fa: fa.face_index)
    ]
    halves = (faces[: f_count // 2], faces[f_count // 2 :])
    out = np.zeros((2 ** len(halves[0]), 2 ** len(halves[1])), dtype=np.float64)
    total = 2**v_count
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digit = [idx >> (v_count - 1 - v) & 1 for v in range(v_count)]
        rows = []
        for half in halves:
            block = np.ones((len(idx), 1), dtype=np.float64)
            for cyc, t in half:
                f_idx = np.zeros(len(idx), dtype=np.int64)
                for v in cyc:
                    f_idx = f_idx * d + digit[v]
                block = (block[:, :, None] * t[f_idx][:, None, :]).reshape(len(idx), -1)
            rows.append(block)
        out += rows[0].T @ rows[1]
    out = out.reshape(-1)
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
    pt = platonic("dodecahedron")
    ac = AgreementContraction(
        pt, _assign_all(pt, ame62(), orientations), "hovering"
    )
    return contract(ac, hover_position=hover_position, face_order=face_order)
