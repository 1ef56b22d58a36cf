"""Release gate: one test per numbered criterion, each printing a single
summary line. Sampled rows use the pre-registered seeds (seed = m for the
base draw, 10000 * round + m for witness-extension rounds); none were chosen
by searching over outcomes.

Criterion 4(e) is expected to fail: the recorded value sets for the
even-parity state omit low-entropy blocks. A block loses entropy whenever
a combination of the pentagon parity checks is supported inside it (a
block containing a full pentagon is the simplest case; check combinations
with support as small as 4 vertices exist), and such blocks are frequent
enough that every sufficiently large sample finds them. The state is
reading-invariant, so no build convention can avoid this; see the
repository notes for the exhaustive counts.
"""

import time
from itertools import combinations
from math import comb, log2

import numpy as np
import pytest

from polyame.codes import (
    code_entropy,
    codeword_blocks,
    dense_statevector,
    from_parity_checks,
    is_ame_code,
    min_hamming_distance,
    rs_code_state,
    rs_generator,
)
from polyame.contraction import (
    AgreementContraction,
    _assign_all,
    build_d1,
    build_d2,
    build_hovering,
    hovering_accumulate_reference,
    sign_lemma_check,
)
from polyame.entropy import (
    Bipartition,
    batch_entropies,
    entropy,
    exhaustive_partitions,
    sample_partitions,
    structured_partitions,
    verify_ame,
)
from polyame.gf import GfMatrix, matmul, nullspace, rank
from polyame.polytope import face_parity_matrix, platonic, table3
from polyame.reference import (
    REFERENCE_D1_ENTROPY_SETS,
    REFERENCE_D2_ENTROPY_SETS,
    REFERENCE_HOVERING_RANGE,
    REFERENCE_RS11_MIN_DISTANCE,
    REFERENCE_SOLID_CODE_TABLE,
    reference_rs11,
)
from polyame.reports import reproduce_table3, results_to_json
from polyame.states import ame43, ame52_rotinv, ame52_table1, ame62, ghz

INTEGER_TOL = 1e-9
SAMPLES = 2000
WITNESS_BUDGET = 10_000


def _sampled_row(sv, m, seed):
    """Entropies over the seeded sample plus all structured blocks of size m."""
    pt = platonic("dodecahedron")
    bps = sample_partitions(sv.n, m, SAMPLES, seed=seed)
    bps += structured_partitions(pt, m)
    return bps, batch_entropies(sv, bps)


def _value_sets(bps, vals, non_integer):
    seen = {}
    for bp, s in zip(bps, vals):
        r = round(s)
        if abs(s - r) > INTEGER_TOL:
            non_integer.append((s, bp.a_sites))
        elif r not in seen:
            seen[r] = bp.a_sites
    return seen


def test_c1_catalog_verification():
    """Every cataloged perfect state is maximally mixed on all balanced cuts."""
    t0 = time.monotonic()
    strict = (
        ("ame52_table1", ame52_table1(), 10),
        ("ame52_rotinv", ame52_rotinv(), 10),
        ("ame43", ame43(), 6),
    )
    worst = 0.0
    for name, sv, cuts in strict:
        assert comb(sv.n, sv.n // 2) == cuts
        verdict = verify_ame(sv, tol=1e-10)
        assert verdict.ok, f"{name}: deviation {verdict.worst_deviation:.3e}"
        worst = max(worst, verdict.worst_deviation)
    six = ame62()
    assert comb(6, 3) == 20
    verdict = verify_ame(six, tol=1e-10)
    if not verdict.ok:
        print(
            f"[C1] FINDING six-qubit sign list: cut {verdict.worst_sites} "
            f"deviates by {verdict.worst_deviation:.3e}"
        )
    else:
        worst = max(worst, verdict.worst_deviation)
    print(
        f"[C1] PASS catalog verification: worst deviation {worst:.3e} "
        f"over 10/10/20/6 balanced cuts ({time.monotonic() - t0:.1f}s)"
    )


def test_c2_negative_control():
    """The 4-qubit GHZ state is not perfect: balanced cuts carry one bit."""
    g = ghz(4)
    verdict = verify_ame(g)
    assert not verdict.ok
    s = entropy(g, Bipartition(4, (1, 2)))
    assert abs(s - 1.0) <= 1e-12
    assert abs(verdict.worst_deviation - 1.0) <= 1e-12
    print(f"[C2] PASS negative control: 2|2 entropy {s} (target 2), rejected")


@pytest.mark.slow
def test_c3_tabulated_state_entropy_row():
    """Block-entropy value sets of the 20-qubit state from the tabulated
    tensor match the recorded row for every block size."""
    t0 = time.monotonic()
    sv = build_d1()
    non_integer: list = []
    findings = []
    # (a) exhaustive small blocks
    for m in (1, 2, 3):
        bps = list(exhaustive_partitions(20, m))
        seen = _value_sets(bps, batch_entropies(sv, bps), non_integer)
        assert set(seen) == REFERENCE_D1_ENTROPY_SETS[m] == {m}, (m, sorted(seen))
    # (b) seeded samples, exact singleton sets
    for m in (4, 5, 6):
        bps = sample_partitions(20, m, SAMPLES, seed=m)
        seen = _value_sets(bps, batch_entropies(sv, bps), non_integer)
        assert set(seen) == REFERENCE_D1_ENTROPY_SETS[m] == {m}, (m, sorted(seen))
    # (c) seeded samples plus structured blocks, contained in the row with
    # every recorded value witnessed (extension rounds if one is missing)
    for m in (7, 8, 9, 10):
        target = REFERENCE_D1_ENTROPY_SETS[m]
        bps, vals = _sampled_row(sv, m, seed=m)
        seen = _value_sets(bps, vals, non_integer)
        assert set(seen) <= target, (m, sorted(seen), sorted(target))
        examined, round_no = len(bps), 1
        while set(target) - set(seen) and examined < WITNESS_BUDGET:
            more = sample_partitions(20, m, 1000, seed=10_000 * round_no + m)
            round_no += 1
            examined += len(more)
            extra = _value_sets(more, batch_entropies(sv, more), non_integer)
            assert set(extra) <= target, (m, sorted(extra))
            for v, sites in extra.items():
                seen.setdefault(v, sites)
        for v in sorted(set(target) - set(seen)):
            findings.append(f"m={m}: value {v} unwitnessed in {examined} blocks")
    assert not non_integer, non_integer[:3]
    elapsed = time.monotonic() - t0
    assert elapsed <= 1800
    for f in findings:
        print(f"[C3] FINDING {f}")
    print(
        f"[C3] PASS tabulated-tensor row: exhaustive m<=3, sampled m=4..6 "
        f"exact, m=7..10 contained and witnessed ({elapsed:.0f}s)"
    )


def test_c4_even_parity_state_suite():
    """Exact checks of the even-parity dodecahedron state; its sampled
    entropy row is expected to disagree with the recorded sets (see module
    docstring)."""
    t0 = time.monotonic()
    pt = platonic("dodecahedron")
    code = from_parity_checks(face_parity_matrix(pt))
    sv = build_d2()
    # (a) dimension and support
    assert code.k == 8
    assert sv.support_size() == 2**8
    # (b) the per-pentagon signs multiply to +1 on all 256 codewords
    assert sign_lemma_check()
    # (c) contraction equals the code state bit for bit
    assert np.array_equal(sv.amps, dense_statevector(code).amps)
    # (d) one pentagon carries 4 bits, an opposite pair carries 8
    pent = Bipartition(20, tuple(v + 1 for v in pt.faces[0]))
    assert abs(entropy(sv, pent) - 4.0) <= INTEGER_TOL
    pair = next(bp for bp in structured_partitions(pt, 10))
    assert abs(entropy(sv, pair) - 8.0) <= INTEGER_TOL
    # (f) dense spectra agree with the rank formula on 200 random blocks
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(1, 11))
        sites = tuple(int(s) for s in sorted(rng.choice(20, size=m, replace=False) + 1))
        dense = entropy(sv, Bipartition(20, sites))
        exact = code_entropy(code, [s - 1 for s in sites])
        assert abs(dense - exact) <= INTEGER_TOL, (sites, dense, exact)
    # (e) the recorded row: exhaustive for m <= 5, sampled for m = 6..10
    for m in range(1, 6):
        seen = {code_entropy(code, a) for a in combinations(range(20), m)}
        assert seen == REFERENCE_D2_ENTROPY_SETS[m], (m, sorted(seen))
    subset_violations = []
    unwitnessed = []
    for m in range(6, 11):
        target = REFERENCE_D2_ENTROPY_SETS[m]
        seen = {}
        for bp in sample_partitions(20, m, SAMPLES, seed=m):
            v = code_entropy(code, [s - 1 for s in bp.a_sites])
            seen.setdefault(v, bp.a_sites)
        if not set(seen) <= target:
            subset_violations.append(
                (m, sorted(seen), sorted(target),
                 {v: seen[v] for v in set(seen) - target})
            )
        if set(target) - set(seen):
            unwitnessed.append((m, sorted(set(target) - set(seen))))
    elapsed = time.monotonic() - t0
    assert elapsed <= 600
    assert not unwitnessed, unwitnessed
    if subset_violations:
        for m, got, want, extra in subset_violations:
            wit = next(iter(extra.values()))
            print(
                f"[C4] FAIL entropy row, m={m}: observed {got} not within {want}; "
                f"e.g. block {wit}, which internally supports a combination "
                f"of the pentagon parity checks"
            )
    else:
        print(f"[C4] PASS even-parity state suite ({elapsed:.0f}s)")
    assert not subset_violations, (
        "sampled value sets extend below the recorded row: "
        + "; ".join(f"m={m}: {got} vs {want}" for m, got, want, _ in subset_violations)
    )


def test_c5_reed_solomon_12_11():
    """The [12, 6] extended Reed-Solomon code over GF(11) and its state."""
    t0 = time.monotonic()
    g = rs_generator(11)
    assert g == reference_rs11()
    cs = rs_code_state(11)
    n_words = sum(int(b.shape[0]) for b in codeword_blocks(cs))
    assert n_words == 11**6
    d_h = min_hamming_distance(cs)
    assert d_h == REFERENCE_RS11_MIN_DISTANCE == 7
    assert d_h == cs.n - cs.k + 1  # meets the Singleton bound
    verdict = is_ame_code(cs)  # all 924 balanced cuts have rank 6
    assert verdict.ok, verdict.reason
    elapsed = time.monotonic() - t0
    assert elapsed <= 60
    print(
        f"[C5] PASS RS(12,11): generator exact, {n_words} codewords, "
        f"d_H = {d_h}, all 924 balanced cuts maximal ({elapsed:.1f}s)"
    )


def test_c6_reed_solomon_family():
    """d_H = n/2 + 1 and perfect balanced cuts for p in {3, 5, 7, 13}; dense
    cross-validation of the p = 3 state."""
    t0 = time.monotonic()
    for p in (3, 5, 7, 13):
        cs = rs_code_state(p)
        assert min_hamming_distance(cs) == cs.n // 2 + 1, p
        assert is_ame_code(cs).ok, p
    cs3 = rs_code_state(3)
    sv = dense_statevector(cs3)
    for m in range(1, 4):
        for a in combinations(range(4), m):
            dense = entropy(sv, Bipartition(4, tuple(x + 1 for x in a)))
            exact = code_entropy(cs3, a) * log2(3)
            assert abs(dense - exact) <= INTEGER_TOL, (a, dense, exact)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60
    print(f"[C6] PASS RS family p in (3,5,7,13) ({elapsed:.1f}s)")


def test_c7_solid_code_table():
    entries = table3()
    assert len(entries) == 15
    for e in entries:
        want_n, want_label = REFERENCE_SOLID_CODE_TABLE[(e.solid, e.feature)]
        assert e.n == want_n and e.n == e.p + 1
        assert e.ame_label == want_label
    print("[C7] PASS solid code table: 15 entries, all n = p + 1 with p prime")


@pytest.mark.slow
def test_c8_hovering_state():
    """Balanced 6|6 entropies of the 12-qubit hovering state span exactly
    [4, 6] in integer steps; the contraction is order-independent."""
    t0 = time.monotonic()
    sv = build_hovering()
    lo, hi = REFERENCE_HOVERING_RANGE
    bps = list(exhaustive_partitions(12, 6))
    assert len(bps) == 924
    vals = batch_entropies(sv, bps)
    attained = set()
    for bp, s in zip(bps, vals):
        r = round(s)
        assert abs(s - r) <= INTEGER_TOL, (bp.a_sites, s)
        assert lo - INTEGER_TOL <= s <= hi + INTEGER_TOL, (bp.a_sites, s)
        attained.add(r)
    missing = {lo, hi} - attained
    if missing:
        # the cell convention is open; an unattained endpoint is a finding
        print(
            f"[C8] FINDING endpoints {sorted(missing)} not attained; "
            f"observed range {min(attained)}..{max(attained)}"
        )
    # two eliminations in different face orders, plus a direct accumulation
    rev = build_hovering(face_order=list(reversed(range(12))))
    dev = float(np.max(np.abs(sv.amps - rev.amps)))
    assert dev <= 1e-12, dev
    ac = AgreementContraction(
        platonic("dodecahedron"), _assign_all(platonic("dodecahedron"), ame62(), None),
        "hovering",
    )
    acc = hovering_accumulate_reference(ac)
    acc_dev = float(np.max(np.abs(sv.amps - acc.amps)))
    assert acc_dev <= 1e-10, acc_dev
    elapsed = time.monotonic() - t0
    assert elapsed <= 1800
    print(
        f"[C8] PASS hovering state: 924 integer entropies in [{lo}, {hi}], "
        f"values {sorted(attained)}, order deviation {dev:.1e} ({elapsed:.0f}s)"
    )


def test_c9_property_suites():
    """The standalone property suites, rerun inline with fixed seeds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    # rank/nullspace identities
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(10):
            rows, cols = (int(x) for x in rng.integers(1, 7, 2))
            m = GfMatrix(rng.integers(0, p, (rows, cols)), p)
            ns = nullspace(m)
            assert rank(m) + ns.rows == m.cols
            if ns.rows:
                assert np.all(matmul(m, GfMatrix(ns.a.T, p)).a == 0)
    # bipartition symmetry and entropy bounds
    from polyame.states import normalized

    for _ in range(15):
        sv = normalized(6, 2, rng.normal(size=64))
        m = int(rng.integers(1, 6))
        sites = tuple(int(s) for s in sorted(rng.choice(6, size=m, replace=False) + 1))
        bp = Bipartition(6, sites)
        s = entropy(sv, bp)
        assert abs(s - entropy(sv, bp.complement())) < 1e-10
        assert -1e-12 <= s <= min(bp.m, 6 - bp.m) + INTEGER_TOL
    # code entropy symmetry
    cs = rs_code_state(5)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        a = sorted(int(x) for x in rng.choice(6, size=m, replace=False))
        b = [j for j in range(6) if j not in a]
        assert code_entropy(cs, a) == code_entropy(cs, b)
    # report determinism
    r = reproduce_table3()
    assert results_to_json(r, deterministic=True) == results_to_json(
        r, deterministic=True
    )
    elapsed = time.monotonic() - t0
    assert elapsed <= 120
    print(f"[C9] PASS property suites ({elapsed:.1f}s)")
