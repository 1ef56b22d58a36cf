"""Reproduction bundles for the fast reference tables; determinism of the
emitted JSON."""

import json

import pytest

from polyame import reports
from polyame.entropy import sample_partitions, structured_partitions
from polyame.polytope import platonic
from polyame.reports import (
    SAMPLES_PER_M,
    PaperTableResult,
    _result,
    _row,
    reproduce,
    reproduce_ame52_eq4,
    reproduce_ame62_eq8,
    reproduce_table1,
    reproduce_table3,
    results_to_json,
)
from polyame.states import ghz


def test_table1_passes():
    r = reproduce_table1()
    assert r.status == "pass" and r.diffs == []
    assert r.details["rows_checked"] == 32


def test_flat_listing_matches_table():
    r = reproduce_ame52_eq4()
    assert r.status == "pass"
    assert r.details["minus_count_flat"] == r.details["minus_count_table"]


def test_six_qubit_sign_list_passes():
    r = reproduce_ame62_eq8()
    assert r.status == "pass"
    assert r.details["worst_deviation"] < 1e-10


def test_table3_passes():
    r = reproduce_table3()
    assert r.status == "pass" and r.details["entries"] == 15


def test_unknown_table_id():
    with pytest.raises(ValueError):
        reproduce("table9")


def test_status_logic():
    assert _result("x", [], {}).status == "pass"
    assert _result("x", [{"d": 1}], {}).status == "finding"
    assert _result("x", [{"d": 1}], {}, fail=True).status == "fail"
    assert _result("x", [], {}, fail=True).status == "fail"


def test_json_determinism():
    r = reproduce_table3()
    a = results_to_json(r, deterministic=True)
    b = results_to_json(r, deterministic=True)
    assert a == b
    doc = json.loads(a)
    assert doc[0]["table_id"] == "table3"
    assert "metadata" not in doc[0]
    with_meta = json.loads(results_to_json(r))
    assert "timestamp" in with_meta[0]["metadata"]


def test_result_round_trips_to_dict():
    r = PaperTableResult("t", "pass", [], {"k": 1}, {"timestamp": "x"})
    d = r.to_dict()
    assert d["table_id"] == "t" and d["details"] == {"k": 1}


def test_row_folds_stub_entropies():
    """A table row from a stub entropy function: a value within the integer
    tolerance counts as that integer, the first cut of each value is its
    witness, and the seeded extension rounds run until the witness budget."""
    n, m = 20, 5
    calls = []

    def stub(bps):
        calls.append([bp.a_sites for bp in bps])
        vals = [3.0] * len(bps)
        if len(calls) == 1:
            vals[1] = 3.0 + 5e-10
            vals[3] = 2.5
            vals[7] = 4.0
        elif len(calls) == 3:
            vals[5] = 7.0
        return vals

    pt = platonic("dodecahedron")
    row, diffs = _row(stub, "stub", n, m, "sampled", {3, 7, 9}, structured_pt=pt)
    first = sample_partitions(n, m, SAMPLES_PER_M, seed=m) + structured_partitions(pt, m)
    assert calls[0] == [bp.a_sites for bp in first]
    # 9 is never seen, so rounds 1..8 (seed 10000 * round + m) run until the
    # 10,000-cut budget is spent: 2,012 + 8 * 1,000 cuts
    assert len(calls) == 9
    for round_no, cuts in enumerate(calls[1:], start=1):
        more = sample_partitions(n, m, 1000, seed=10_000 * round_no + m)
        assert cuts == [bp.a_sites for bp in more]
    assert row["examined"] == 10_012 and row["seed"] == m and row["mode"] == "sampled"
    assert row["backend"] == "stub" and row["m"] == m
    assert json.dumps(row["values"]) == "[3, 4, 7]"
    assert row["witnesses"] == {
        "3": list(calls[0][0]), "4": list(calls[0][7]), "7": list(calls[2][5]),
    }
    assert diffs == [
        {"m": m, "non_integer_entropy": 2.5, "sites": list(calls[0][3])},
        {"m": m, "value_outside_reference": 4, "sites": list(calls[0][7])},
        {"m": m, "unwitnessed_reference_value": 9},
    ]


def test_row_exhaustive_never_extends():
    row, diffs = _row(lambda bps: [2.0] * len(bps), "stub", 6, 2, "exhaustive", {2, 5})
    assert row["examined"] == 15 and row["seed"] is None and row["values"] == [2]
    assert diffs == [{"m": 2, "unwitnessed_reference_value": 5}]


def test_hovering_folds_stub_entropies(monkeypatch):
    """The hovering report from a stub engine: a value within the integer
    tolerance of 4 is in range, 7 is out of range, 4.5 is not an integer
    (a fail), and the endpoint 6 is never attained."""
    special = {3: 4.0 + 5e-10, 10: 7.0, 20: 4.5}
    cuts = []

    def stub(bps):
        cuts.extend(bp.a_sites for bp in bps)
        return [special.get(i, 5.0) for i in range(len(bps))]

    monkeypatch.setattr(reports, "build_hovering", lambda face_order=None: ghz(12))
    monkeypatch.setattr(reports, "entropy_engine", lambda sv: (stub, "stub"))
    r = reports.reproduce_hovering()
    assert len(cuts) == 924 and cuts[0] == (1, 2, 3, 4, 5, 6)
    assert r.status == "fail"
    assert r.diffs == [
        {"out_of_range": 7.0, "sites": list(cuts[10])},
        {"non_integer_entropy": 4.5, "sites": list(cuts[20])},
        {"endpoint_not_attained": 6, "observed": [4, 5]},
    ]
    assert r.details == {"values": [4, 5], "cuts": 924, "order_deviation": 0.0, "backend": "stub"}
    assert json.dumps(r.details["values"]) == "[4, 5]"
