"""Incidence tables of the five solids and the derived code table."""

import pytest

from polyame.errors import NoOppositeFace, NotPrime, UnknownSolid
from polyame.gf import rank
from polyame.polytope import (
    SOLID_NAMES,
    SolidCodeEntry,
    face_adjacency_distance,
    face_parity_matrix,
    opposite_face_pair,
    platonic,
    table3,
)

# name -> (V, E, F, face size, faces per vertex)
EXPECTED = {
    "tetrahedron": (4, 6, 4, 3, 3),
    "hexahedron": (8, 12, 6, 4, 3),
    "octahedron": (6, 12, 8, 3, 4),
    "dodecahedron": (20, 30, 12, 5, 3),
    "icosahedron": (12, 30, 20, 3, 5),
}


def test_counts_and_euler():
    for name, (v, e, f, size, per_vertex) in EXPECTED.items():
        pt = platonic(name)
        assert (pt.vertex_count, pt.edge_count, pt.face_count) == (v, e, f)
        assert v - e + f == 2
        assert all(len(face) == size for face in pt.faces)
        incidence = [0] * v
        for face in pt.faces:
            assert sorted(set(face)) == sorted(face), "repeated vertex in a cycle"
            for x in face:
                incidence[x] += 1
        assert all(c == per_vertex for c in incidence)


def test_every_edge_on_two_faces():
    for name in SOLID_NAMES:
        pt = platonic(name)
        count: dict = {}
        for face in pt.faces:
            for i, u in enumerate(face):
                w = face[(i + 1) % len(face)]
                count[(min(u, w), max(u, w))] = count.get((min(u, w), max(u, w)), 0) + 1
        assert set(count.values()) == {2}
        assert len(count) == pt.edge_count
        # the map keeps the order in which the face cycles first reach edges
        assert list(pt.edge_faces) == list(count)
        for (u, w), (a, b) in pt.edge_faces.items():
            assert a < b and {u, w} <= set(pt.faces[a]) & set(pt.faces[b])
        assert pt.edges == tuple(sorted(count))


def test_solid_code_entry_needs_a_prime():
    """Raised, not asserted, so it holds under `python -O`."""
    assert SolidCodeEntry("dodecahedron", "faces", 12).p == 11
    with pytest.raises(NotPrime):
        SolidCodeEntry("hexahedron", "edges+1", 13)


def test_unknown_solid():
    with pytest.raises(UnknownSolid):
        platonic("cube")  # the table uses the classical name hexahedron


def test_dodecahedron_caps():
    pt = platonic("dodecahedron")
    assert set(pt.faces[0]) == {0, 1, 2, 3, 4}
    assert set(pt.faces[11]) == {15, 16, 17, 18, 19}


def test_face_parity_matrix():
    pt = platonic("dodecahedron")
    h = face_parity_matrix(pt)
    assert (h.rows, h.cols, h.p) == (12, 20, 2)
    assert all(int(row.sum()) == 5 for row in h.a)
    # the twelve constraints carry exactly one dependency: 20 - 12 = 8 free bits
    assert rank(h) == 12


def test_face_adjacency_distance():
    pt = platonic("dodecahedron")
    dist = face_adjacency_distance(pt, 0)
    assert dist[0] == 0
    assert sorted(dist) == [0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3]


def test_opposite_face_pair():
    for name in ("hexahedron", "octahedron", "dodecahedron", "icosahedron"):
        pt = platonic(name)
        for a in range(pt.face_count):
            b = opposite_face_pair(pt, a)
            assert not set(pt.faces[a]) & set(pt.faces[b])
            assert opposite_face_pair(pt, b) == a
    with pytest.raises(NoOppositeFace):
        opposite_face_pair(platonic("tetrahedron"), 0)


def test_table3_entries():
    entries = table3()
    assert len(entries) == 15
    from polyame.gf import is_prime

    for e in entries:
        assert e.p == e.n - 1 and is_prime(e.p)
        assert e.ame_label == f"AME({e.n},{e.n - 1})"
    # spot values: dodecahedron counts 12/30/20 -> AME(12,11), AME(30,29), AME(20,19)
    by_key = {(e.solid, e.feature): e.ame_label for e in entries}
    assert by_key[("dodecahedron", "faces")] == "AME(12,11)"
    assert by_key[("dodecahedron", "edges")] == "AME(30,29)"
    assert by_key[("dodecahedron", "vertices")] == "AME(20,19)"
