"""Reproduction bundles: rebuild each reference table from scratch and diff
against the embedded expected values.

Statuses: "pass" (diffs empty), "finding" (the recomputation disagrees with a
reference value, or a reference value is attained by no block; the computed
evidence is attached), "fail" (an internal consistency check broke, which
would point at a bug rather than at the reference).

Every table enumerates what it checks (no sampling), so reruns are
bit-identical; timestamps live only in metadata.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from . import reference as ref
from .codes import (
    codeword_census,
    from_parity_checks,
    is_ame_code,
    rs_code_state,
    rs_generator,
)
from .contraction import build_d1, build_hovering
from .entropy import (
    CODE_RANK,
    DENSE,
    INTEGER_TOL,
    SweepRow,
    entropy_engine,
    exhaustive_masks,
    exhaustive_partitions,
    partition_masks,
    verify_ame,
)
from .polytope import face_parity_matrix, platonic, table3
from .states import StateVector, ame52_table1, ame62

TABLE_IDS = (
    "table1",
    "table2",
    "table3",
    "ame52_eq4",
    "ame62_eq8",
    "rs12_11",
    "hovering",
)

@dataclass
class PaperTableResult:
    table_id: str
    status: str
    diffs: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _result(table_id, diffs, details, fail=False) -> PaperTableResult:
    status = "fail" if fail else ("pass" if not diffs else "finding")
    return PaperTableResult(
        table_id,
        status,
        diffs,
        details,
        metadata={"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
    )


def _signs_of(sv: StateVector) -> list[int]:
    scale = np.abs(sv.amps).max()
    return [int(round(a / scale)) for a in sv.amps]


def reproduce_table1() -> PaperTableResult:
    """Sign pattern of the tabulated 5-qubit perfect state."""
    got = _signs_of(ame52_table1())
    diffs = [
        {"index": i, "expected": int(e), "got": g}
        for i, (e, g) in enumerate(zip(ref.REFERENCE_AME52_SIGNS, got))
        if e != g
    ]
    return _result("table1", diffs, {"rows_checked": len(got)})


def reproduce_ame52_eq4() -> PaperTableResult:
    """The flat sign listing and the tabular one describe the same state."""
    flat = list(ref.REFERENCE_AME52_FLAT)
    table = list(ref.REFERENCE_AME52_SIGNS)
    diffs = [
        {"index": i, "flat": f, "table": t}
        for i, (f, t) in enumerate(zip(flat, table))
        if f != t
    ]
    details = {
        "minus_count_flat": flat.count(-1),
        "minus_count_table": table.count(-1),
    }
    return _result("ame52_eq4", diffs, details)


def reproduce_ame62_eq8() -> PaperTableResult:
    verdict = verify_ame(ame62(), tol=1e-10)
    diffs = []
    if not verdict.ok:
        diffs.append(
            {
                "violating_cut": list(verdict.worst_sites),
                "deviation": verdict.worst_deviation,
            }
        )
    return _result(
        "ame62_eq8",
        diffs,
        {"worst_deviation": verdict.worst_deviation, "backend": DENSE},
    )


def _row(entropies, backend, n, m, target):
    """One exhaustive table row: the entropies of every m-block of n sites,
    from `entropies` (cut masks to their entropies). Returns
    the row and its diffs: each value outside `target` and each non-integer
    entropy, with its first witness, then each unwitnessed value of
    `target`."""
    row = SweepRow(m, "exhaustive", backend=backend).fold(entropies, n, exhaustive_masks(n, m))
    diffs = []
    ints = {}
    for v, sites in row.witnesses.items():
        if not v.is_integer():
            diffs.append({"m": m, "non_integer_entropy": v, "sites": list(sites)})
            continue
        ints[int(v)] = sites
        if v not in target:
            diffs.append({"m": m, "value_outside_reference": int(v), "sites": list(sites)})
    for value in sorted(set(target) - set(ints)):
        diffs.append({"m": m, "unwitnessed_reference_value": value})
    return {
        "m": m,
        "mode": row.mode,
        "seed": row.seed,
        "examined": row.examined,
        "values": sorted(ints),
        "witnesses": {str(v): list(ints[v]) for v in sorted(ints)},
        "backend": backend,
    }, diffs


def reproduce_table2() -> PaperTableResult:
    """Entropy profiles of both dodecahedron states, every block of every
    size m = 1..10, so each deviation from the reference rows is certain
    and each value's witness is its first block in `combinations` order.

    The tabulated-tensor state is recognised once and analyzed with the
    entropy engine (its stabilizer form, else dense spectra); the
    cyclically invariant state equals a parity-check code state and uses
    the exact rank formula. Each row is one array of cut masks: rows of at
    least 2^20 / 20 cuts (m >= 7) are read from the engine's subset-count
    table, smaller rows rank each cut. Only witnesses become site lists.
    """
    diffs: list = []
    details: dict = {}
    pt = platonic("dodecahedron")
    states = (
        ("d1", build_d1(), ref.REFERENCE_D1_ENTROPY_SETS),
        ("d2", from_parity_checks(face_parity_matrix(pt)), ref.REFERENCE_D2_ENTROPY_SETS),
    )
    for state_id, state, targets in states:
        entropies, backend = entropy_engine(state)
        rows = []
        for m in range(1, 11):
            row, row_diffs = _row(entropies, backend, state.n, m, targets[m])
            rows.append(row)
            diffs.extend(row_diffs)
        details[state_id] = {"state_id": state_id, "rows": rows}
    details["integer_tolerance"] = INTEGER_TOL
    return _result("table2", diffs, details)


def reproduce_table3() -> PaperTableResult:
    diffs = []
    entries = table3()
    for e in entries:
        exp_n, exp_label = ref.REFERENCE_SOLID_CODE_TABLE[(e.solid, e.feature)]
        if e.n != exp_n or e.ame_label != exp_label:
            diffs.append(
                {
                    "solid": e.solid,
                    "feature": e.feature,
                    "expected": [exp_n, exp_label],
                    "got": [e.n, e.ame_label],
                }
            )
    return _result("table3", diffs, {"entries": len(entries)})


def reproduce_rs12_11() -> PaperTableResult:
    diffs = []
    g = rs_generator(11)
    expected = ref.reference_rs11()
    if g != expected:
        diffs.extend(
            {
                "row": i,
                "col": j,
                "expected": int(expected.a[i, j]),
                "got": int(g.a[i, j]),
            }
            for i in range(expected.rows)
            for j in range(expected.cols)
            if g.a[i, j] != expected.a[i, j]
        )
    cs = rs_code_state(11)
    n_words, d_h = codeword_census(cs)
    if n_words != 11**6:
        diffs.append({"codeword_count": n_words, "expected": 11**6})
    if d_h != ref.REFERENCE_RS11_MIN_DISTANCE:
        diffs.append(
            {"min_distance": d_h, "expected": ref.REFERENCE_RS11_MIN_DISTANCE}
        )
    if d_h != cs.n - cs.k + 1:
        diffs.append({"mds_violation": d_h, "singleton_bound": cs.n - cs.k + 1})
    ame = is_ame_code(cs)
    if not ame.ok:
        diffs.append(
            {"is_ame": False, "witness": list(ame.witness or ()), "reason": ame.reason}
        )
    return _result(
        "rs12_11",
        diffs,
        {"k": cs.k, "n": cs.n, "min_distance": d_h, "ame": bool(ame), "backend": CODE_RANK},
    )


def reproduce_hovering() -> PaperTableResult:
    """Balanced-cut entropy range of the 12-qubit hovering state, plus a
    contraction-order invariance check."""
    diffs: list = []
    sv = build_hovering()
    lo, hi = ref.REFERENCE_HOVERING_RANGE
    entropies, backend = entropy_engine(sv)
    # Kept on Bipartitions, converted once, rather than `exhaustive_masks`:
    # perfbench's d1-dense-profile reads a peak memory that depends on when
    # the garbage collector runs, and these 924 objects set that timing.
    # ROADMAP item 5 makes the reading independent of it.
    bps = list(exhaustive_partitions(sv.n, sv.n // 2))
    row = SweepRow(sv.n // 2, "exhaustive", backend=backend).fold(
        entropies, sv.n, partition_masks(sv.n, bps)
    )
    ints = []
    for v, sites in row.witnesses.items():
        if not v.is_integer():
            diffs.append({"non_integer_entropy": v, "sites": list(sites)})
        elif not lo <= v <= hi:
            diffs.append({"out_of_range": v, "sites": list(sites)})
        else:
            ints.append(int(v))
    for endpoint in (lo, hi):
        if endpoint not in ints:
            diffs.append(
                {"endpoint_not_attained": endpoint, "observed": sorted(ints)}
            )
    fail = bool(row.non_integer)
    sv2 = build_hovering(face_order=list(reversed(range(12))))
    dev = float(np.max(np.abs(sv.amps - sv2.amps)))
    if dev > 1e-12:
        diffs.append({"contraction_order_deviation": dev})
        fail = True
    return _result(
        "hovering",
        diffs,
        {"values": sorted(ints), "cuts": row.examined, "order_deviation": dev, "backend": backend},
        fail=fail,
    )


_REPRODUCERS = {
    "table1": reproduce_table1,
    "table2": reproduce_table2,
    "table3": reproduce_table3,
    "ame52_eq4": reproduce_ame52_eq4,
    "ame62_eq8": reproduce_ame62_eq8,
    "rs12_11": reproduce_rs12_11,
    "hovering": reproduce_hovering,
}


def reproduce(table_id: str) -> PaperTableResult:
    """Run one reproducer. An exception inside it is a broken pipeline: it
    becomes status "fail" with the exception in `diffs` and its traceback
    in `metadata`, so the other tables still run."""
    try:
        fn = _REPRODUCERS[table_id]
    except KeyError:
        raise ValueError(
            f"unknown table id {table_id!r}; expected one of {TABLE_IDS}"
        ) from None
    try:
        return fn()
    except Exception as exc:
        result = _result(table_id, [{"exception": f"{type(exc).__name__}: {exc}"}], {}, fail=True)
        result.metadata["traceback"] = traceback.format_exc()
        return result


def reproduce_all() -> list[PaperTableResult]:
    return [reproduce(tid) for tid in TABLE_IDS]


def results_to_json(results, deterministic: bool = False) -> str:
    """JSON for a result or list of results; deterministic=True drops the
    metadata block (timestamps) so identical reruns byte-match."""
    if isinstance(results, PaperTableResult):
        results = [results]
    payload = []
    for r in results:
        d = r.to_dict()
        if deterministic:
            d.pop("metadata", None)
        payload.append(d)
    return json.dumps(payload, indent=2, sort_keys=True)
