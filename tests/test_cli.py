"""CLI behavior: exit codes, report formats, and the documented examples."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from polyame.cli import main
from polyame.contraction import build_d2
from polyame.entropy import Bipartition, entropy
from polyame.stateio import read_state, write_state
from polyame.states import ame62, ghz, normalized


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def d2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "d2.bin"
    runner = CliRunner()
    res = runner.invoke(main, ["build", "d2", "--out", str(path)])
    assert res.exit_code == 0
    return str(path)


def test_polytope_show(runner, tmp_path):
    out = tmp_path / "dodeca.json"
    res = runner.invoke(main, ["polytope", "show", "dodecahedron", "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["vertices"] == 20 and len(doc["faces"]) == 12 and len(doc["edges"]) == 30
    labels = {v for f in doc["faces"] for v in f}
    assert labels == set(range(1, 21))  # 1-based site labels


def test_polytope_show_unknown(runner):
    res = runner.invoke(main, ["polytope", "show", "cube"])
    assert res.exit_code == 2


def test_ame_dump(runner, tmp_path):
    out = tmp_path / "t1.txt"
    res = runner.invoke(main, ["ame", "dump", "ame52_table1", "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 32
    idx, bits, sign = lines[0].split("\t")
    assert (idx, bits, sign) == ("0", "00000", "+1")


def test_ame_dump_unknown(runner):
    res = runner.invoke(main, ["ame", "dump", "nope"])
    assert res.exit_code == 2


def test_build_writes_decodable_state(runner, d2_file):
    sv = read_state(d2_file)
    assert sv.amps.tobytes() == build_d2().amps.tobytes()


def test_build_conflicting_orientation_sources(runner, tmp_path):
    f = tmp_path / "o.json"
    f.write_text("[0,0,0,0,0,0,0,0,0,0,0,0]")
    res = runner.invoke(
        main,
        ["build", "d1", "--orientations", str(f), "--random-orientations", "3"],
    )
    assert res.exit_code == 2


def test_build_d2_rejects_orientations(runner, tmp_path):
    f = tmp_path / "o.json"
    f.write_text("[1,0,0,0,0,0,0,0,0,0,0,0]")
    res = runner.invoke(main, ["build", "d2", "--orientations", str(f)])
    assert res.exit_code == 2


def test_analyze_exhaustive(runner, d2_file, tmp_path):
    out = tmp_path / "r.json"
    res = runner.invoke(
        main, ["analyze", "--state", d2_file, "--m", "3", "--out", str(out)]
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert list(row) == [
        "m", "values", "witnesses", "examined", "mode", "seed", "non_integer", "backend",
    ]
    assert row["m"] == 3 and row["mode"] == "exhaustive"
    assert row["values"] == [3.0] and row["examined"] == 1140
    assert row["backend"] == "stabilizer"  # d2 is a code state
    assert doc["tolerances"]["integer_tolerance"] == 1e-9


def test_analyze_dense_state_reports_raw_values(runner, tmp_path):
    """A random state is no stabilizer state: its entropies are not
    integers, so they appear raw in values, witnesses and non_integer."""
    sv = normalized(6, 2, np.random.default_rng(3).normal(size=64))
    state, out = tmp_path / "rnd.bin", tmp_path / "r.json"
    write_state(state, sv)
    res = runner.invoke(main, ["analyze", "--state", str(state), "--m", "2", "--out", str(out)])
    assert res.exit_code == 0
    (row,) = json.loads(out.read_text())["rows"]
    assert row["backend"] == "dense" and row["examined"] == 15
    assert len(row["non_integer"]) == 15
    assert row["values"] == sorted(set(row["non_integer"]))
    assert list(row["witnesses"]) == [str(v) for v in row["values"]]
    for v in row["values"]:
        assert entropy(sv, Bipartition(6, tuple(row["witnesses"][str(v)]))) == v


def test_analyze_csv(runner, d2_file, tmp_path):
    out = tmp_path / "r.csv"
    res = runner.invoke(
        main,
        ["analyze", "--state", d2_file, "--m", "6", "--sample", "50", "--seed", "3",
         "--format", "csv", "--out", str(out)],
    )
    assert res.exit_code == 0
    header, row = out.read_text().splitlines()
    assert header == "state_id,m,values,examined,mode,seed"
    assert row.startswith("d2,6,") and row.endswith(",50,sampled,3")


def test_analyze_plan_file(runner, d2_file, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([
        {"m": 2, "mode": "exhaustive"},
        {"m": 5, "mode": "sampled", "count": 30, "seed": 9},
        {"m": 5, "mode": "structured", "solid": "dodecahedron"},
    ]))
    out = tmp_path / "r.json"
    res = runner.invoke(
        main, ["analyze", "--state", d2_file, "--plan", str(plan), "--out", str(out)]
    )
    assert res.exit_code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["mode"] for r in rows] == ["exhaustive", "sampled", "structured"]
    assert rows[2]["examined"] == 12  # one block per face
    assert rows[2]["values"] == [4.0]  # every pentagon carries four bits


def test_analyze_config_errors(runner, d2_file, tmp_path):
    res = runner.invoke(main, ["analyze", "--state", d2_file, "--m", "4", "--sample", "10"])
    assert res.exit_code == 2  # sampling without a seed
    res = runner.invoke(main, ["analyze", "--state", d2_file])
    assert res.exit_code == 2  # neither plan nor m
    ghz_file = tmp_path / "ghz21.bin"
    write_state(ghz_file, ghz(21))
    res = runner.invoke(main, ["analyze", "--state", str(ghz_file), "--m", "10"])
    assert res.exit_code == 2  # C(21, 10) = 352,716 cuts: sample instead
    assert "exceeds exhaustive budget" in res.output
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"m": 3, "mode": "sampled", "count": 5}]))
    res = runner.invoke(main, ["analyze", "--state", d2_file, "--plan", str(plan)])
    assert res.exit_code == 2  # sampled plan row without a seed
    for bad_m in ("0", "20", "30"):
        res = runner.invoke(main, ["analyze", "--state", d2_file, "--m", bad_m])
        assert res.exit_code == 2 and "block size" in res.output
    for count in ("0", "-3"):  # an empty sample would print an empty row
        res = runner.invoke(main, ["analyze", "--state", d2_file, "--m", "2", "--sample", count, "--seed", "1"])
        assert res.exit_code == 2 and "sample count" in res.output
    six_file = tmp_path / "ame62.bin"
    write_state(six_file, ame62())
    for row in (
        {"m": 30, "mode": "sampled", "count": 5, "seed": 1},
        {"m": 6, "mode": "exhaustive"},
        {"m": 30, "mode": "structured"},
    ):
        plan.write_text(json.dumps([row]))
        res = runner.invoke(main, ["analyze", "--state", str(six_file), "--plan", str(plan)])
        assert res.exit_code == 2 and "block size" in res.output


def test_code_rs_report(runner, tmp_path):
    out = tmp_path / "rs5.json"
    res = runner.invoke(main, ["code", "rs", "--p", "5", "--report", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert (doc["p"], doc["n"], doc["k"], doc["d_H"]) == (5, 6, 3, 4)
    assert doc["is_ame"] is True
    assert doc["generator"][0] == [1, 1, 1, 1, 1, 0]


def test_code_rs_not_prime(runner):
    res = runner.invoke(main, ["code", "rs", "--p", "4"])
    assert res.exit_code == 2
    assert "not prime" in res.output


def test_code_rs_two_unsupported(runner):
    res = runner.invoke(main, ["code", "rs", "--p", "2"])
    assert res.exit_code == 2


def test_code_d2(runner, tmp_path):
    out = tmp_path / "d2code.json"
    res = runner.invoke(main, ["code", "d2", "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert (doc["p"], doc["n"], doc["k"], doc["d_H"]) == (2, 20, 8, 6)


@pytest.mark.slow
def test_code_d2_entropies(runner, tmp_path):
    out = tmp_path / "d2ent.json"
    res = runner.invoke(main, ["code", "d2", "--entropies", "--out", str(out)])
    assert res.exit_code == 0
    ent = json.loads(out.read_text())["entropies"]
    assert set(ent) == {str(m) for m in range(1, 11)}
    assert set(ent["1"].values()) == {1}
    assert ent["5"]["1,2,3,4,5"] == 4  # a full pentagon carries 4 bits


def test_reproduce_exit_codes(runner, tmp_path):
    res = runner.invoke(main, ["reproduce"])
    assert res.exit_code == 2  # need a table or --all
    res = runner.invoke(main, ["reproduce", "table3", "--all"])
    assert res.exit_code == 2
    out = tmp_path / "t3.json"
    res = runner.invoke(main, ["reproduce", "table3", "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc[0]["status"] == "pass"


def test_reproduce_crash_is_a_fail(runner, tmp_path, monkeypatch):
    from polyame import reports

    def crash():
        raise RuntimeError("pipeline broke")

    monkeypatch.setitem(reports._REPRODUCERS, "table3", crash)
    out = tmp_path / "t3.json"
    res = runner.invoke(main, ["reproduce", "table3", "--out", str(out)])
    assert res.exit_code == 1
    (block,) = json.loads(out.read_text())
    assert block["status"] == "fail"
    assert block["diffs"] == [{"exception": "RuntimeError: pipeline broke"}]
    assert "RuntimeError" in block["metadata"]["traceback"]


def test_documented_pipeline(runner, tmp_path):
    """build d1 then analyze a sampled m = 6 sweep: the value set is {6}."""
    state = tmp_path / "d1.bin"
    res = runner.invoke(main, ["build", "d1", "--out", str(state)])
    assert res.exit_code == 0
    meta = json.loads(res.output.splitlines()[0])
    assert meta["encoding"] == "float64"
    out = tmp_path / "d1m6.json"
    res = runner.invoke(
        main,
        ["analyze", "--state", str(state), "--m", "6", "--sample", "100",
         "--seed", "7", "--out", str(out)],
    )
    assert res.exit_code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["values"] == [6.0] and row["backend"] == "stabilizer"
    assert row["seed"] == 7 and row["examined"] == 100
