"""Command-line interface.

Exit codes: 0 = success (findings against reference values are reported in
the output but are not failures), 1 = an internal check failed, 2 = bad
configuration (unknown names, non-prime moduli, malformed plans, ...).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import click
import numpy as np

from .codes import (
    code_entropy,
    from_parity_checks,
    is_ame_code,
    min_hamming_distance,
    rs_code_state,
)
from .contraction import build_d1, build_d2, build_hovering
from .entropy import EXHAUSTIVE_BUDGET, entropy_sweep, worker_count
from .errors import PolyameError
from .polytope import face_parity_matrix, platonic
from .reports import TABLE_IDS, reproduce, reproduce_all, results_to_json
from .states import CATALOG, digits_of
from .stateio import read_state, write_state


@dataclass
class RunConfig:
    """Everything a run needs, resolved from flags; emitted reports carry the
    seeds and budgets explicitly so no output depends on hidden defaults."""

    command: str
    name: Optional[str] = None
    state: Optional[str] = None
    orientations: Optional[list[int]] = None
    random_orientations: Optional[int] = None
    hover_position: int = 6
    encoding: str = "auto"
    state_path: Optional[str] = None
    plan_path: Optional[str] = None
    m: Optional[int] = None
    sample: Optional[int] = None
    seed: Optional[int] = None
    budget: int = EXHAUSTIVE_BUDGET
    out: Optional[str] = None
    fmt: str = "json"
    p: Optional[int] = None
    report_path: Optional[str] = None
    entropies: bool = False
    table: Optional[str] = None
    all_tables: bool = False
    extra: dict = field(default_factory=dict)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text)


def _run_polytope_show(cfg: RunConfig) -> int:
    pt = platonic(cfg.name)
    doc = {
        "name": pt.name,
        "vertices": pt.vertex_count,
        "faces": [[v + 1 for v in f] for f in pt.faces],
        "edges": [[u + 1, v + 1] for (u, v) in pt.edges],
    }
    _emit(json.dumps(doc, indent=2), cfg.out)
    return 0


def _run_ame_dump(cfg: RunConfig) -> int:
    try:
        sv = CATALOG[cfg.name]()
    except KeyError:
        raise PolyameError(
            f"unknown state {cfg.name!r}; options: {', '.join(sorted(CATALOG))}"
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
    _emit("\n".join(lines), cfg.out)
    return 0


def _load_orientations(cfg: RunConfig, count: int) -> Optional[list[int]]:
    if cfg.orientations is not None and cfg.random_orientations is not None:
        raise PolyameError("give either an orientations file or a seed, not both")
    if cfg.orientations is not None:
        return cfg.orientations
    if cfg.random_orientations is not None:
        rng = np.random.default_rng(cfg.random_orientations)
        return [int(x) for x in rng.integers(0, 5, size=count)]
    return None


def _run_build(cfg: RunConfig) -> int:
    orientations = _load_orientations(cfg, 12)
    if cfg.state == "d1":
        sv = build_d1(orientations)
    elif cfg.state == "d2":
        if orientations is not None:
            raise PolyameError("the cyclically invariant state has no orientation freedom")
        sv = build_d2()
    elif cfg.state == "hovering":
        sv = build_hovering(cfg.hover_position, orientations)
    else:
        raise PolyameError(f"unknown build target {cfg.state!r}")
    meta = {
        "state": cfg.state,
        "n": sv.n,
        "d": sv.d,
        "orientations": orientations if orientations is not None else [0] * 12,
    }
    if cfg.state == "hovering":
        meta["hover_position"] = cfg.hover_position
    if cfg.out:
        meta["encoding"] = write_state(cfg.out, sv, cfg.encoding)
        meta["out"] = cfg.out
        click.echo(json.dumps(meta))
    else:
        click.echo(json.dumps(meta))
        click.echo("no --out given; state not written", err=True)
    return 0


def _parse_plan(cfg: RunConfig, n: int):
    if cfg.plan_path and cfg.m is not None:
        raise PolyameError("give either --plan or --m, not both")
    if cfg.plan_path:
        rows = json.loads(Path(cfg.plan_path).read_text())
        plan = []
        for row in rows:
            m = int(row["m"])
            mode = row["mode"]
            if mode == "exhaustive":
                plan.append((m, "exhaustive"))
            elif mode == "sampled":
                if "seed" not in row:
                    raise PolyameError(f"sampled row for m={m} needs a seed")
                plan.append((m, ("sample", int(row.get("count", 2000)), int(row["seed"]))))
            elif mode == "structured":
                plan.append((m, ("structured", platonic(row.get("solid", "dodecahedron")))))
            else:
                raise PolyameError(f"unknown mode {mode!r} in plan")
        return plan
    if cfg.m is None:
        raise PolyameError("need --plan FILE or --m M")
    if not 1 <= cfg.m <= n - 1:
        raise PolyameError(f"--m must be in 1..{n - 1}")
    if cfg.sample is None:
        return [(cfg.m, "exhaustive")]
    if cfg.seed is None:
        raise PolyameError("--sample needs --seed for reproducibility")
    return [(cfg.m, ("sample", cfg.sample, cfg.seed))]


def _report_doc(report) -> dict:
    return {
        "state_id": report.state_id,
        "rows": [
            {
                "m": row.m,
                "values": row.values,
                "witnesses": {str(v): list(row.witnesses[v]) for v in sorted(row.witnesses)},
                "examined": row.examined,
                "mode": row.mode,
                "seed": row.seed,
                "non_integer": row.non_integer,
                "backend": row.backend,
            }
            for row in report.rows
        ],
        "tolerances": {
            "eig_cutoff": report.eig_cutoff,
            "integer_tolerance": report.integer_tolerance,
        },
        "workers": worker_count(),
    }


def _report_csv(report) -> str:
    lines = ["state_id,m,values,examined,mode,seed"]
    for row in report.rows:
        vals = ";".join(f"{v:g}" for v in row.values)
        seed = "" if row.seed is None else row.seed
        lines.append(f"{report.state_id},{row.m},{vals},{row.examined},{row.mode},{seed}")
    return "\n".join(lines)


def _run_analyze(cfg: RunConfig) -> int:
    sv = read_state(cfg.state_path)
    plan = _parse_plan(cfg, sv.n)
    for m, mode in plan:
        if mode == "exhaustive":
            from math import comb

            if comb(sv.n, m) > cfg.budget:
                raise PolyameError(
                    f"exhaustive m={m} needs {comb(sv.n, m)} partitions; "
                    f"budget is {cfg.budget} (raise --budget or sample)"
                )
    report = entropy_sweep(sv, plan, state_id=Path(cfg.state_path).stem)
    text = _report_csv(report) if cfg.fmt == "csv" else json.dumps(_report_doc(report), indent=2)
    _emit(text, cfg.out)
    return 0


def _run_code_rs(cfg: RunConfig) -> int:
    cs = rs_code_state(cfg.p)
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
    _emit(json.dumps(doc, indent=2), cfg.report_path)
    return 0


def _run_code_d2(cfg: RunConfig) -> int:
    cs = from_parity_checks(face_parity_matrix(platonic("dodecahedron")))
    doc = {
        "p": cs.p,
        "n": cs.n,
        "k": cs.k,
        "d_H": min_hamming_distance(cs),
        "generator": cs.gen.a.tolist(),
    }
    if cfg.entropies:
        from itertools import combinations

        ent = {}
        for m in range(1, cs.n // 2 + 1):
            ent[m] = {
                ",".join(map(str, a)): code_entropy(cs, [x - 1 for x in a])
                for a in combinations(range(1, cs.n + 1), m)
            }
        doc["entropies"] = ent
    _emit(json.dumps(doc, indent=2), cfg.out)
    return 0


def _run_reproduce(cfg: RunConfig) -> int:
    if cfg.all_tables == (cfg.table is not None):
        raise PolyameError("give exactly one table id, or --all")
    results = reproduce_all() if cfg.all_tables else [reproduce(cfg.table)]
    _emit(results_to_json(results), cfg.out)
    for r in results:
        click.echo(f"{r.table_id}: {r.status}", err=True)
    return 1 if any(r.status == "fail" for r in results) else 0


_RUNNERS = {
    "polytope_show": _run_polytope_show,
    "ame_dump": _run_ame_dump,
    "build": _run_build,
    "analyze": _run_analyze,
    "code_rs": _run_code_rs,
    "code_d2": _run_code_d2,
    "reproduce": _run_reproduce,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit code."""
    try:
        return _RUNNERS[cfg.command](cfg)
    except PolyameError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


@click.group()
def main() -> None:
    """Perfect-tensor states on Platonic solids."""


@main.group()
def polytope() -> None:
    """Incidence data of the five solids."""


@polytope.command("show")
@click.argument("name")
@click.option("--out", type=click.Path(), default=None)
def polytope_show(name, out):
    """Emit faces (1-based vertex labels) and edges as JSON."""
    sys.exit(run(RunConfig("polytope_show", name=name, out=out)))


@main.group()
def ame() -> None:
    """The small perfect states used as face tensors."""


@ame.command("dump")
@click.argument("name")
@click.option("--out", type=click.Path(), default=None)
def ame_dump(name, out):
    """Print the coefficient table (index, digits, sign) of a catalog state."""
    sys.exit(run(RunConfig("ame_dump", name=name, out=out)))


@main.command("build")
@click.argument("state", type=click.Choice(["d1", "d2", "hovering"]))
@click.option("--orientations", "orientations_file", type=click.Path(exists=True), default=None,
              help="JSON file with one cycle offset (0..4) per face.")
@click.option("--random-orientations", "random_orientations", type=int, default=None,
              metavar="SEED", help="Draw the per-face offsets from this seed.")
@click.option("--hover-pos", type=int, default=6, show_default=True,
              help="1-based site of the face tensor kept as the physical qubit.")
@click.option("--out", type=click.Path(), default=None, help="State file to write.")
@click.option("--encoding", type=click.Choice(["auto", "int8", "float64"]), default="auto",
              show_default=True)
def build(state, orientations_file, random_orientations, hover_pos, out, encoding):
    """Contract face tensors over the dodecahedron into a state file."""
    orientations = None
    if orientations_file is not None:
        try:
            orientations = [int(x) for x in json.loads(Path(orientations_file).read_text())]
        except (ValueError, TypeError) as exc:
            click.echo(f"error: bad orientations file: {exc}", err=True)
            sys.exit(2)
    sys.exit(
        run(
            RunConfig(
                "build",
                state=state,
                orientations=orientations,
                random_orientations=random_orientations,
                hover_position=hover_pos,
                out=out,
                encoding=encoding,
            )
        )
    )


@main.command("analyze")
@click.option("--state", "state_path", type=click.Path(exists=True), required=True)
@click.option("--plan", "plan_path", type=click.Path(exists=True), default=None,
              help="JSON list of rows: {m, mode: exhaustive|sampled|structured, count, seed, solid}.")
@click.option("--m", type=int, default=None, help="Single block size (alternative to --plan).")
@click.option("--sample", type=int, default=None, help="Sample this many blocks instead of enumerating.")
@click.option("--seed", type=int, default=None, help="Sampling seed (required with --sample).")
@click.option("--budget", type=int, default=EXHAUSTIVE_BUDGET, show_default=True,
              help="Cap on partitions per exhaustive sweep.")
@click.option("--out", type=click.Path(), default=None, help="Report file (default: stdout).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def analyze(state_path, plan_path, m, sample, seed, budget, out, fmt):
    """Entropy sweep over bipartitions of a stored state."""
    sys.exit(
        run(
            RunConfig(
                "analyze",
                state_path=state_path,
                plan_path=plan_path,
                m=m,
                sample=sample,
                seed=seed,
                budget=budget,
                out=out,
                fmt=fmt,
            )
        )
    )


@main.group()
def code() -> None:
    """Classical codes behind the states."""


@code.command("rs")
@click.option("--p", type=int, required=True, help="Odd prime field size.")
@click.option("--report", "report_path", type=click.Path(), default=None)
def code_rs(p, report_path):
    """Extended Reed-Solomon [p+1, (p+1)/2] code summary."""
    sys.exit(run(RunConfig("code_rs", p=p, report_path=report_path)))


@code.command("d2")
@click.option("--entropies", is_flag=True, help="Include per-subset cut entropies.")
@click.option("--out", type=click.Path(), default=None)
def code_d2(entropies, out):
    """The pentagon-parity code on the dodecahedron's vertices."""
    sys.exit(run(RunConfig("code_d2", entropies=entropies, out=out)))


@main.command("reproduce")
@click.argument("table", required=False, type=click.Choice(list(TABLE_IDS)))
@click.option("--all", "all_tables", is_flag=True, help="Run every table.")
@click.option("--out", type=click.Path(), default=None)
def reproduce_cmd(table, all_tables, out):
    """Rebuild reference tables and diff against the embedded values."""
    sys.exit(run(RunConfig("reproduce", table=table, all_tables=all_tables, out=out)))


if __name__ == "__main__":
    main()
