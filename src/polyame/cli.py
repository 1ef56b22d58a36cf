"""Command-line interface.

Exit codes: 0 = success (findings against reference values are reported in
the output but are not failures), 1 = an internal check failed, 2 = bad
configuration (unknown names, non-prime moduli, malformed plans, ...).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from .codes import (
    from_parity_checks,
    is_ame_code,
    min_hamming_distance,
    rs_code_state,
)
from .contraction import build_d1, build_d2, build_hovering
from .entropy import entropy_engine, entropy_sweep, exhaustive_partitions
from .errors import PolyameError
from .polytope import face_parity_matrix, platonic
from .reports import TABLE_IDS, reproduce, reproduce_all, results_to_json
from .states import CATALOG, digits_of
from .stateio import read_state, write_state


def _exits(body):
    """Make a command body into a click callback that exits with the code
    the body returns, or prints `error:` and exits 2 on a configuration
    error (a malformed JSON file raises a ValueError)."""

    @functools.wraps(body)
    def command(*args, **kwargs):
        try:
            code = body(*args, **kwargs)
        except (PolyameError, ValueError, KeyError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        sys.exit(code)

    return command


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text)


@click.group()
def main() -> None:
    """Perfect-tensor states on Platonic solids."""


@main.group()
def polytope() -> None:
    """Incidence data of the five solids."""


@polytope.command("show")
@click.argument("name")
@click.option("--out", type=click.Path(), default=None)
@_exits
def polytope_show(name, out):
    """Emit faces (1-based vertex labels) and edges as JSON."""
    pt = platonic(name)
    doc = {
        "name": pt.name,
        "vertices": pt.vertex_count,
        "faces": [[v + 1 for v in f] for f in pt.faces],
        "edges": [[u + 1, v + 1] for (u, v) in pt.edges],
    }
    _emit(json.dumps(doc, indent=2), out)
    return 0


@main.group()
def ame() -> None:
    """The small perfect states used as face tensors."""


@ame.command("dump")
@click.argument("name")
@click.option("--out", type=click.Path(), default=None)
@_exits
def ame_dump(name, out):
    """Print the coefficient table (index, digits, sign) of a catalog state."""
    try:
        sv = CATALOG[name]()
    except KeyError:
        raise PolyameError(
            f"unknown state {name!r}; options: {', '.join(sorted(CATALOG))}"
        ) from None
    scale = float(np.abs(sv.amps).max())
    uniform = bool(
        np.all((np.abs(np.abs(sv.amps) - scale) < 1e-12) | (np.abs(sv.amps) < 1e-12))
    )
    lines = []
    for i, a in enumerate(sv.amps):
        if abs(a) < 1e-12:
            continue
        bits = "".join(str(x) for x in digits_of(i, sv.n, sv.d))
        val = f"{int(round(a / scale)):+d}" if uniform else f"{a:+.12g}"
        lines.append(f"{i}\t{bits}\t{val}")
    _emit("\n".join(lines), out)
    return 0


def _load_orientations(
    orientations_file: Optional[str], random_orientations: Optional[int], count: int
) -> Optional[list[int]]:
    orientations = None
    if orientations_file is not None:
        try:
            orientations = [int(x) for x in json.loads(Path(orientations_file).read_text())]
        except (ValueError, TypeError) as exc:
            raise PolyameError(f"bad orientations file: {exc}") from None
    if random_orientations is not None:
        if orientations is not None:
            raise PolyameError("give either an orientations file or a seed, not both")
        rng = np.random.default_rng(random_orientations)
        orientations = [int(x) for x in rng.integers(0, 5, size=count)]
    return orientations


@main.command("build")
@click.argument("state", type=click.Choice(["d1", "d2", "hovering"]))
@click.option("--orientations", "orientations_file", type=click.Path(exists=True), default=None,
              help="JSON file with one cycle offset (0..4) per face.")
@click.option("--random-orientations", "random_orientations", type=int, default=None,
              metavar="SEED", help="Draw the per-face offsets from this seed.")
@click.option("--hover-pos", type=int, default=6, show_default=True,
              help="1-based site of the face tensor kept as the physical qubit.")
@click.option("--out", type=click.Path(), default=None, help="State file to write.")
@_exits
def build(state, orientations_file, random_orientations, hover_pos, out):
    """Contract face tensors over the dodecahedron into a state file."""
    orientations = _load_orientations(orientations_file, random_orientations, 12)
    if state == "d1":
        sv = build_d1(orientations)
    elif state == "d2":
        if orientations is not None:
            raise PolyameError("the cyclically invariant state has no orientation freedom")
        sv = build_d2()
    else:
        sv = build_hovering(hover_pos, orientations)
    meta = {
        "state": state,
        "n": sv.n,
        "d": sv.d,
        "orientations": orientations if orientations is not None else [0] * 12,
    }
    if state == "hovering":
        meta["hover_position"] = hover_pos
    if out:
        meta["encoding"] = write_state(out, sv)
        meta["out"] = out
        click.echo(json.dumps(meta))
    else:
        click.echo(json.dumps(meta))
        click.echo("no --out given; state not written", err=True)
    return 0


def _parse_plan(plan_path, m, sample, seed):
    if plan_path and m is not None:
        raise PolyameError("give either --plan or --m, not both")
    if plan_path:
        rows = json.loads(Path(plan_path).read_text())
        plan = []
        for row in rows:
            row_m = int(row["m"])
            mode = row["mode"]
            if mode == "exhaustive":
                plan.append((row_m, "exhaustive"))
            elif mode == "sampled":
                if "seed" not in row:
                    raise PolyameError(f"sampled row for m={row_m} needs a seed")
                plan.append((row_m, ("sample", int(row.get("count", 2000)), int(row["seed"]))))
            elif mode == "structured":
                plan.append((row_m, ("structured", platonic(row.get("solid", "dodecahedron")))))
            else:
                raise PolyameError(f"unknown mode {mode!r} in plan")
        return plan
    if m is None:
        raise PolyameError("need --plan FILE or --m M")
    if sample is None:
        return [(m, "exhaustive")]
    if seed is None:
        raise PolyameError("--sample needs --seed for reproducibility")
    return [(m, ("sample", sample, seed))]


def _report_csv(report) -> str:
    lines = ["state_id,m,values,examined,mode,seed"]
    for row in report.rows:
        vals = ";".join(f"{v:g}" for v in row.values)
        seed = "" if row.seed is None else row.seed
        lines.append(f"{report.state_id},{row.m},{vals},{row.examined},{row.mode},{seed}")
    return "\n".join(lines)


@main.command("analyze")
@click.option("--state", "state_path", type=click.Path(exists=True), required=True)
@click.option("--plan", "plan_path", type=click.Path(exists=True), default=None,
              help="JSON list of rows: {m, mode: exhaustive|sampled|structured, count, seed, solid}.")
@click.option("--m", type=int, default=None, help="Single block size (alternative to --plan).")
@click.option("--sample", type=int, default=None, help="Sample this many blocks instead of enumerating.")
@click.option("--seed", type=int, default=None, help="Sampling seed (required with --sample).")
@click.option("--out", type=click.Path(), default=None, help="Report file (default: stdout).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_exits
def analyze(state_path, plan_path, m, sample, seed, out, fmt):
    """Entropy sweep over bipartitions of a stored state."""
    sv = read_state(state_path)
    plan = _parse_plan(plan_path, m, sample, seed)
    report = entropy_sweep(sv, plan, state_id=Path(state_path).stem)
    text = _report_csv(report) if fmt == "csv" else json.dumps(report.to_dict(), indent=2)
    _emit(text, out)
    return 0


@main.group()
def code() -> None:
    """Classical codes behind the states."""


@code.command("rs")
@click.option("--p", type=int, required=True, help="Odd prime field size.")
@click.option("--report", "report_path", type=click.Path(), default=None)
@_exits
def code_rs(p, report_path):
    """Extended Reed-Solomon [p+1, (p+1)/2] code summary."""
    cs = rs_code_state(p)
    d_h = min_hamming_distance(cs)
    ame = is_ame_code(cs)
    doc = {
        "p": cs.p,
        "n": cs.n,
        "k": cs.k,
        "d_H": d_h,
        "is_ame": bool(ame),
        "generator": cs.gen.a.tolist(),
    }
    _emit(json.dumps(doc, indent=2), report_path)
    return 0


@code.command("d2")
@click.option("--entropies", is_flag=True, help="Include per-subset cut entropies.")
@click.option("--out", type=click.Path(), default=None)
@_exits
def code_d2(entropies, out):
    """The pentagon-parity code on the dodecahedron's vertices."""
    cs = from_parity_checks(face_parity_matrix(platonic("dodecahedron")))
    doc = {
        "p": cs.p,
        "n": cs.n,
        "k": cs.k,
        "d_H": min_hamming_distance(cs),
        "generator": cs.gen.a.tolist(),
    }
    if entropies:
        cut_entropies, _ = entropy_engine(cs)
        ent = {}
        for m in range(1, cs.n // 2 + 1):
            bps = list(exhaustive_partitions(cs.n, m))
            ent[m] = {
                ",".join(map(str, bp.a_sites)): int(v) for bp, v in zip(bps, cut_entropies(bps))
            }
        doc["entropies"] = ent
    _emit(json.dumps(doc, indent=2), out)
    return 0


@main.command("reproduce")
@click.argument("table", required=False, type=click.Choice(list(TABLE_IDS)))
@click.option("--all", "all_tables", is_flag=True, help="Run every table.")
@click.option("--out", type=click.Path(), default=None)
@_exits
def reproduce_cmd(table, all_tables, out):
    """Rebuild reference tables and diff against the embedded values."""
    if all_tables == (table is not None):
        raise PolyameError("give exactly one table id, or --all")
    results = reproduce_all() if all_tables else [reproduce(table)]
    _emit(results_to_json(results), out)
    for r in results:
        click.echo(f"{r.table_id}: {r.status}", err=True)
    return 1 if any(r.status == "fail" for r in results) else 0


if __name__ == "__main__":
    main()
