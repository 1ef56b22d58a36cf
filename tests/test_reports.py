"""Reproduction bundles for the reference tables (table2 end to end is
`slow`); determinism of the emitted JSON."""

import json
from itertools import combinations
from math import comb

import pytest

from polyame import reports
from polyame.contraction import build_d1
from polyame.entropy import entropy_engine
from polyame.reference import REFERENCE_D1_ENTROPY_SETS
from polyame.reports import (
    PaperTableResult,
    _result,
    _row,
    reproduce,
    reproduce_ame52_eq4,
    reproduce_ame62_eq8,
    reproduce_table1,
    reproduce_table2,
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
    """An exhaustive table row from a stub entropy function: every block is
    examined once, in `combinations` order; a value within the integer
    tolerance counts as that integer; the first cut of each value is its
    witness; the diffs list the non-integer and outside-reference values,
    then the unwitnessed reference values."""
    n, m = 8, 3
    special = {0: 3.0 + 5e-10, 3: 2.5, 7: 4.0, 9: 4.0 - 5e-10, 12: 2.5, 20: 2.75}
    calls = []

    def stub(bps):
        calls.append([bp.a_sites for bp in bps])
        return [special.get(i, 3.0) for i in range(len(bps))]

    row, diffs = _row(stub, "stub", n, m, {3, 7, 9})
    assert calls == [list(combinations(range(1, n + 1), m))]
    cuts = calls[0]
    assert row == {
        "m": m, "mode": "exhaustive", "seed": None, "examined": comb(n, m),
        "values": [3, 4], "witnesses": {"3": list(cuts[0]), "4": list(cuts[7])},
        "backend": "stub",
    }
    assert json.dumps(row["values"]) == "[3, 4]"
    assert diffs == [
        {"m": m, "non_integer_entropy": 2.5, "sites": list(cuts[3])},
        {"m": m, "value_outside_reference": 4, "sites": list(cuts[7])},
        {"m": m, "non_integer_entropy": 2.75, "sites": list(cuts[20])},
        {"m": m, "unwitnessed_reference_value": 7},
        {"m": m, "unwitnessed_reference_value": 9},
    ]


def test_row_exhaustive_never_extends():
    row, diffs = _row(lambda bps: [2.0] * len(bps), "stub", 6, 2, {2, 5})
    assert row["examined"] == 15 and row["seed"] is None and row["values"] == [2]
    assert diffs == [{"m": 2, "unwitnessed_reference_value": 5}]


def test_row_finds_d1_m8_blocks_of_entropy_6():
    """The exhaustive d1 row m = 8, through the real engine, sees the block
    of entropy 6 that the recorded row {7, 8} leaves out."""
    row, diffs = _row(*entropy_engine(build_d1()), 20, 8, REFERENCE_D1_ENTROPY_SETS[8])
    assert row["examined"] == 125_970 and row["values"] == [6, 7, 8]
    witness = [1, 6, 7, 11, 14, 16, 17, 20]
    assert row["witnesses"]["6"] == witness
    assert diffs == [{"m": 8, "value_outside_reference": 6, "sites": witness}]


@pytest.mark.slow
def test_table2_enumerates_every_block():
    r = reproduce_table2()
    assert r.status == "finding"
    for state_id in ("d1", "d2"):
        rows = r.details[state_id]["rows"]
        assert [row["m"] for row in rows] == list(range(1, 11))
        for row in rows:
            assert row["mode"] == "exhaustive" and row["seed"] is None
            assert row["examined"] == comb(20, row["m"])
    assert "samples_per_m" not in r.details
    assert r.diffs == [
        # d1
        {"m": 6, "value_outside_reference": 5, "sites": [1, 3, 7, 8, 12, 17]},
        {"m": 8, "value_outside_reference": 6, "sites": [1, 6, 7, 11, 14, 16, 17, 20]},
        # d2
        {"m": 6, "value_outside_reference": 4, "sites": [1, 2, 9, 13, 16, 20]},
        {"m": 7, "value_outside_reference": 5, "sites": [1, 2, 3, 4, 5, 6, 18]},
        {"m": 8, "value_outside_reference": 5, "sites": [1, 2, 3, 9, 10, 14, 16, 17]},
        {"m": 9, "value_outside_reference": 6, "sites": [1, 2, 3, 4, 5, 6, 7, 11, 18]},
        {"m": 10, "value_outside_reference": 6, "sites": [1, 2, 3, 4, 5, 6, 7, 8, 11, 12]},
    ]


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
