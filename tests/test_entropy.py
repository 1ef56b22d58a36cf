"""Entropy kernel, bipartition enumeration, and the AME verifier."""

from math import comb

import numpy as np
import pytest

from polyame.entropy import (
    Bipartition,
    _spectrum_dense,
    _spectrum_sparse,
    entropy,
    entropy_engine,
    entropy_sweep,
    exhaustive_partitions,
    sample_partitions,
    structured_partitions,
    verify_ame,
)
from polyame.codes import code_entropy, from_parity_checks
from polyame.errors import InvalidCut, TooLarge
from polyame.polytope import face_parity_matrix, platonic
from polyame.states import ame43, ame52_table1, ghz, normalized


def test_bipartition_normalizes_and_validates():
    bp = Bipartition(5, (3, 1))
    assert bp.a_sites == (1, 3) and bp.m == 2
    assert bp.complement().a_sites == (2, 4, 5)
    with pytest.raises(InvalidCut):
        Bipartition(5, ())
    with pytest.raises(InvalidCut):
        Bipartition(5, (1, 2, 3, 4, 5))  # block must be proper
    with pytest.raises(InvalidCut):
        Bipartition(5, (0, 1))  # sites are 1-based
    with pytest.raises(InvalidCut):
        Bipartition(5, (1, 1))


def test_cut_must_fit_the_state():
    sv = ame52_table1()
    with pytest.raises(InvalidCut):
        entropy(sv, Bipartition(6, (1, 2)))
    # the stabilizer route checks it too: dodecahedron faces on 5 sites
    with pytest.raises(InvalidCut):
        entropy_sweep(sv, [(5, ("structured", platonic("dodecahedron")))])


def test_entropy_known_values():
    # product state
    prod = normalized(3, 2, [1, 0, 0, 0, 0, 0, 0, 0])
    assert entropy(prod, Bipartition(3, (1,))) == pytest.approx(0.0, abs=1e-12)
    # Bell pair
    bell = normalized(2, 2, [1, 0, 0, 1])
    assert entropy(bell, Bipartition(2, (1,))) == pytest.approx(1.0, abs=1e-12)
    # GHZ cuts always carry exactly one bit
    g = ghz(4)
    for sites in [(1,), (1, 2), (1, 3), (2, 4), (1, 2, 3)]:
        assert entropy(g, Bipartition(4, sites)) == pytest.approx(1.0, abs=1e-12)
    # qutrit GHZ carries log2(3)
    g3 = ghz(4, d=3)
    assert entropy(g3, Bipartition(4, (2, 3))) == pytest.approx(np.log2(3), abs=1e-12)


def test_entropy_symmetry_and_bounds():
    rng = np.random.default_rng(29)
    for _ in range(20):
        sv = normalized(6, 2, rng.normal(size=64))
        m = int(rng.integers(1, 6))
        sites = tuple(sorted(rng.choice(6, size=m, replace=False) + 1))
        sites = tuple(int(s) for s in sites)
        bp = Bipartition(6, sites)
        s = entropy(sv, bp)
        assert abs(s - entropy(sv, bp.complement())) < 1e-10
        assert -1e-12 <= s <= min(m, 6 - m) + 1e-9


def test_sparse_spectrum_matches_dense():
    for sv in (ghz(6), ame52_table1(), ame43()):
        nz = np.nonzero(sv.amps)[0]
        for sites in [(1,), (1, 2), (2, 4)]:
            bp = Bipartition(sv.n, sites)
            dense = np.sort(_spectrum_dense(sv, bp))
            sparse = np.sort(_spectrum_sparse(sv, bp, nz))
            # sparse drops rows/columns that are entirely zero
            dense = dense[dense > 1e-14]
            sparse = sparse[sparse > 1e-14]
            assert np.allclose(dense, sparse, atol=1e-12)


def test_verify_ame():
    verdict = verify_ame(ame52_table1())
    assert verdict.ok and verdict.worst_deviation < 1e-10
    bad = verify_ame(ghz(4))
    assert not bad.ok
    assert bad.worst_deviation == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_partitions():
    parts = list(exhaustive_partitions(6, 3))
    assert len(parts) == comb(6, 3)
    assert len({p.a_sites for p in parts}) == len(parts)
    with pytest.raises(TooLarge):
        list(exhaustive_partitions(20, 10, budget=1000))


def test_sample_partitions_deterministic():
    a = sample_partitions(20, 6, 50, seed=7)
    b = sample_partitions(20, 6, 50, seed=7)
    assert [x.a_sites for x in a] == [x.a_sites for x in b]
    assert len({x.a_sites for x in a}) == 50
    assert all(x.m == 6 for x in a)
    c = sample_partitions(20, 6, 50, seed=8)
    assert [x.a_sites for x in c] != [x.a_sites for x in a]
    # count is capped by the number of distinct subsets
    assert len(sample_partitions(5, 2, 100, seed=1)) == comb(5, 2)


def test_structured_partitions():
    pt = platonic("dodecahedron")
    blocks = structured_partitions(pt)
    sizes = sorted({b.m for b in blocks})
    assert sizes == [5, 8, 10]
    assert sum(1 for b in blocks if b.m == 5) == 12  # one per face
    assert sum(1 for b in blocks if b.m == 10) == 6  # opposite-face pairs
    assert sum(1 for b in blocks if b.m == 8) == 30  # edge neighborhoods
    assert [b.m for b in structured_partitions(pt, m=8)] == [8] * 30
    assert structured_partitions(pt, m=7) == []
    # tetrahedron: every face block is size 3, no opposite pairs,
    # edge neighborhoods cover all 4 vertices so they are dropped
    assert {b.m for b in structured_partitions(platonic("tetrahedron"))} == {3}


def test_entropy_sweep_modes():
    sv = ame52_table1()
    report = entropy_sweep(
        sv,
        [(1, "exhaustive"), (2, ("sample", 5, 3))],
        state_id="t1",
    )
    assert report.state_id == "t1"
    ex, sa = report.rows
    assert ex.mode == "exhaustive" and ex.examined == 5 and ex.values == [1.0]
    assert sa.mode == "sampled" and sa.seed == 3 and sa.examined == 5
    assert sa.values == [2.0]
    assert ex.witnesses[1.0] and not ex.non_integer
    with pytest.raises(ValueError):
        entropy_sweep(sv, [(1, ("bogus",))])


def test_engine_takes_code_states():
    code = from_parity_checks(face_parity_matrix(platonic("dodecahedron")))
    entropies, backend = entropy_engine(code)
    assert backend == "code-rank"
    bps = sample_partitions(20, 7, 20, seed=1)
    assert entropies(bps) == [float(code_entropy(code, [s - 1 for s in bp.a_sites])) for bp in bps]
    with pytest.raises(InvalidCut):
        entropies([Bipartition(12, (1, 2))])
