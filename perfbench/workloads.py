"""The two workloads. Each one builds its inputs from the seed, sets up
(timed as set-up), runs one round of program calls (timed as solve), and
checks the outputs against `oracles` (untimed).

A workload has `setup_reps`, `setup()`, `check_setup(art)`, `solve(art, ops)`,
`check(art, result)` for the first round's full checks, and
`check_final(art, result)` for cross-checks whose own memory would distort
the peak-memory reading; the harness runs those last. `code-ranks` is made
of two parts with the same methods, `D2CodeCensus` and `RsAmeFamily`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import oracles
from spans import rebind, restore

# Program calls go through module attributes, looked up at call time, so
# that spans installed on the package are seen.
import polyame as pa
from polyame import codes as codes_module
from polyame.cli import main as polyame_main

N_D1 = 20


class Ops:
    """Counts the program operations a run attempts and those that raise.
    A failed operation yields FAILED; its traceback is printed once."""

    FAILED = object()

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return self.FAILED


def cli(*args: str) -> str:
    """Run `polyame ARGS` in this process; raises unless it exits 0."""
    res = CliRunner().invoke(polyame_main, [str(a) for a in args])
    if res.exit_code != 0:
        raise RuntimeError(
            f"polyame {' '.join(map(str, args))} exited {res.exit_code}: {res.output.strip()}"
        ) from res.exception
    return res.output


def _fresh(path: Path) -> Path:
    """An output path with no stale file from an earlier round."""
    path.unlink(missing_ok=True)
    return path


class RoundTripMismatch(Exception):
    pass


def _digest(sv) -> str:
    return hashlib.sha256(sv.amps.tobytes()).hexdigest()


def _read_reproduce(path: Path) -> dict:
    """The single report block of `polyame reproduce --out`, without its
    timestamp metadata."""
    (block,) = json.loads(path.read_text())
    block.pop("metadata", None)
    return block


class D1DenseProfile:
    """Tabulated-tensor 20-qubit state: CLI build and state-file round trip,
    a seeded `analyze` plan over every block size 1..10 plus the
    dodecahedron's structured blocks, and `reproduce hovering`."""

    name = "d1-dense-profile"
    setup_reps = 1
    SAMPLES_PER_M = 4
    # Structured blocks of the dodecahedron by size: 12 faces (5 sites),
    # 30 edge-adjacent face pairs (8 sites), 6 opposite face pairs (10 sites).
    STRUCTURED = {5: 12, 8: 30, 10: 6}

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.plan = [
            {"m": m, "mode": "sampled", "count": self.SAMPLES_PER_M,
             "seed": int(rng.integers(2**31))}
            for m in range(1, 11)
        ] + [{"m": m, "mode": "structured", "solid": "dodecahedron"} for m in self.STRUCTURED]
        self.plan_path = out_dir / "d1-plan.json"
        self.plan_path.write_text(json.dumps(self.plan))
        self.state_path = out_dir / "d1.bin"
        self.report_path = out_dir / "d1-report.json"
        self.hovering_path = out_dir / "hovering.json"
        self.built = None

    def setup(self):
        cli("build", "d1", "--out", _fresh(self.state_path))
        return pa.read_state(self.state_path)

    def check_setup(self, sv) -> list[str]:
        if self.built is None:
            self.built = _digest(pa.build_d1())
        return [] if (sv.n, sv.d) == (N_D1, 2) else [f"d1 read back as n={sv.n}, d={sv.d}"]

    def _round_trip(self) -> None:
        """The state file, read back, must equal build_d1() bit for bit."""
        if _digest(pa.read_state(self.state_path)) != self.built:
            raise RoundTripMismatch(f"{self.state_path.name} read back differs from build_d1()")

    def solve(self, sv, ops):
        out = {"analyze": None, "hovering": None}
        if ops.call(cli, "analyze", "--state", self.state_path, "--plan", self.plan_path,
                    "--out", _fresh(self.report_path)) is not ops.FAILED:
            out["analyze"] = json.loads(self.report_path.read_text())
        if ops.call(cli, "reproduce", "hovering",
                    "--out", _fresh(self.hovering_path)) is not ops.FAILED:
            out["hovering"] = _read_reproduce(self.hovering_path)
        ops.call(self._round_trip)
        return out

    def check(self, sv, result) -> list[str]:
        errors = []
        if result["analyze"] is not None:
            errors += self._check_analyze(sv, result["analyze"])
        if result["hovering"] is not None:
            errors += self._check_hovering(result["hovering"])
        return errors

    def _check_analyze(self, sv, report) -> list[str]:
        errors = []
        rows = report["rows"]
        if len(rows) != len(self.plan):
            return [f"analyze returned {len(rows)} rows for a {len(self.plan)}-row plan"]
        for plan_row, row in zip(self.plan, rows):
            m = plan_row["m"]
            where = f"analyze m={m} {plan_row['mode']}"
            if plan_row["mode"] == "sampled":
                expected = (m, "sampled", min(plan_row["count"], comb(N_D1, m)), plan_row["seed"])
            else:
                expected = (m, "structured", self.STRUCTURED[m], None)
            got = (row["m"], row["mode"], row["examined"], row["seed"])
            if got != expected:
                errors.append(f"{where}: (m, mode, examined, seed) = {got}, expected {expected}")
            if row["non_integer"]:
                errors.append(f"{where}: non-integer entropies {row['non_integer']}")
            if sorted(row["witnesses"]) != sorted(str(v) for v in row["values"]):
                errors.append(f"{where}: witnesses {sorted(row['witnesses'])} vs values {row['values']}")
            for v in row["values"]:
                if not (oracles.is_integer(v) and 0 <= v <= min(m, N_D1 - m)):
                    errors.append(f"{where}: value {v} is not an integer in [0, {min(m, N_D1 - m)}]")
            # Seeded subset: the witness of every reported value, recomputed
            # by SVD and, through the program, on the complement.
            for v, sites in row["witnesses"].items():
                sites = tuple(sites)
                if len(set(sites)) != m or not all(1 <= s <= N_D1 for s in sites):
                    errors.append(f"{where}: malformed witness {sites}")
                    continue
                own = oracles.entropy_svd(sv.amps, N_D1, 2, sites)
                comp = pa.entropy(sv, pa.Bipartition(N_D1, sites).complement())
                if abs(own - float(v)) > oracles.INTEGER_TOL or abs(comp - float(v)) > oracles.INTEGER_TOL:
                    errors.append(f"{where}: witness {sites} reported {v}, SVD {own}, complement {comp}")
        return errors

    def _check_hovering(self, block) -> list[str]:
        errors = []
        details = block["details"]
        if block["table_id"] != "hovering" or block["status"] == "fail":
            errors.append(f"reproduce hovering: status {block['status']}, diffs {block['diffs']}")
        if details["cuts"] != comb(12, 6) or details["order_deviation"] > 1e-12:
            errors.append(f"reproduce hovering: cuts {details['cuts']}, "
                          f"order deviation {details['order_deviation']}")
        sv = pa.build_hovering()
        sv_rev = pa.build_hovering(face_order=list(reversed(range(12))))
        if np.max(np.abs(sv.amps - sv_rev.amps)) > 1e-12:
            errors.append("hovering: the two elimination orders disagree")
        own = {
            cut: oracles.entropy_svd(sv.amps, 12, 2, [s + 1 for s in cut])
            for cut in oracles.balanced_cuts(12)
        }
        seen = set()
        for cut, s in own.items():
            comp = tuple(j for j in range(12) if j not in cut)
            if not oracles.is_integer(s) or abs(s - own[comp]) > oracles.INTEGER_TOL:
                errors.append(f"hovering: cut {cut} has S(A) = {s}, S(complement) = {own[comp]}")
            seen.add(round(s))
        reported = set(details["values"]) | {
            round(d["out_of_range"]) for d in block["diffs"] if "out_of_range" in d
        }
        if seen != reported:
            errors.append(f"hovering: own entropy values {sorted(seen)}, reported {sorted(reported)}")
        return errors

    def check_final(self, sv, result) -> list[str]:
        return []


class D2CodeCensus:
    """GF(2) part of code-ranks. Even-parity code of the dodecahedron from its pentagon parity checks,
    with the vertex labels permuted by the seed: `code_entropy` of every cut
    of up to MAX_M sites, folded into per-value counts with one witness
    each."""

    MAX_M = 4
    DENSE_CHECKS = 16

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.perm = [int(x) for x in rng.permutation(N_D1)]
        h = pa.face_parity_matrix(pa.platonic("dodecahedron")).a[:, self.perm]
        self.h = pa.GfMatrix(h, 2)
        self.cols = oracles.column_masks(h.tolist())
        total = sum(comb(N_D1, m) for m in range(1, self.MAX_M + 1))
        self.dense_picks = sorted(int(i) for i in rng.choice(total, self.DENSE_CHECKS, replace=False))

    def setup(self):
        return pa.from_parity_checks(self.h)

    def check_setup(self, cs) -> list[str]:
        k = N_D1 - oracles.gf2_rank(self.cols)
        if (cs.p, cs.n, cs.k) != (2, N_D1, k):
            return [f"d2 code has (p, n, k) = {(cs.p, cs.n, cs.k)}, expected {(2, N_D1, k)}"]
        return []

    def solve(self, cs, ops):
        cuts = []
        census: dict[int, dict[int, list]] = {}
        for m in range(1, self.MAX_M + 1):
            row = census.setdefault(m, {})
            for bp in pa.exhaustive_partitions(N_D1, m):
                s = ops.call(pa.code_entropy, cs, [x - 1 for x in bp.a_sites])
                cuts.append((bp.a_sites, s))
                if s is not ops.FAILED:
                    row.setdefault(s, [0, bp.a_sites])[0] += 1
        return {"cuts": cuts, "census": census}

    def check(self, cs, result) -> list[str]:
        errors = []
        expected = [
            sites
            for m in range(1, self.MAX_M + 1)
            for sites in combinations(range(1, N_D1 + 1), m)
        ]
        if [sites for sites, _ in result["cuts"]] != expected:
            errors.append("d2: the cuts examined are not every cut of 1..MAX_M sites in order")
        for sites, s in result["cuts"]:
            if s is Ops.FAILED:
                continue
            own = oracles.code_cut_entropy(self.cols, [x - 1 for x in sites])
            if s != own and len(errors) < 20:
                errors.append(f"d2: cut {sites} has code_entropy {s}, own GF(2) rank gives {own}")
        for m, row in result["census"].items():
            if sum(c for c, _ in row.values()) != comb(N_D1, m):
                errors.append(f"d2: census row m={m} counts {sum(c for c, _ in row.values())} cuts")
        return errors

    def check_final(self, cs, result) -> list[str]:
        # Dense spectra of the contracted state on the unpermuted labels:
        # cut A of the permuted code is {perm[j] : j in A} there.
        amps = pa.build_d2().amps
        errors = []
        for i in self.dense_picks:
            sites, s = result["cuts"][i]
            if s is Ops.FAILED:
                continue
            original = [self.perm[x - 1] + 1 for x in sites]
            dense = oracles.entropy_svd(amps, N_D1, 2, original)
            if abs(dense - s) > oracles.INTEGER_TOL:
                errors.append(f"d2: cut {sites} has code_entropy {s}, dense spectrum {dense}")
        return errors


class RsAmeFamily:
    """Odd-p part of code-ranks. Extended Reed-Solomon code states AME(p+1, p) for fixed odd primes:
    `is_ame_code` on every balanced cut, minimum distance by codeword
    enumeration where p^k is small enough, and `reproduce rs12_11`."""

    PRIMES = (3, 5, 7, 11, 13)
    ENUM_PRIMES = (3, 5, 7, 11)
    CUTS_CHECKED = 40

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.samples = {}
        for p in self.PRIMES:
            cuts = list(oracles.balanced_cuts(p + 1))
            picks = rng.choice(len(cuts), min(self.CUTS_CHECKED, len(cuts)), replace=False)
            self.samples[p] = [cuts[i] for i in sorted(picks)]
        self.report_path = out_dir / "rs12_11.json"
        self.words = 0

    def setup(self):
        return [pa.rs_code_state(p) for p in self.PRIMES]

    def check_setup(self, states) -> list[str]:
        errors = []
        for p, cs in zip(self.PRIMES, states):
            if (cs.p, cs.n, cs.k) != (p, p + 1, (p + 1) // 2):
                errors.append(f"RS({p}): (p, n, k) = {(cs.p, cs.n, cs.k)}")
            elif cs.gen.a.tolist() != oracles.rs_generator(p):
                errors.append(f"RS({p}): generator differs from the extended RS definition")
        return errors

    def _counted(self, fn):
        def blocks(*args, **kwargs):
            for block in fn(*args, **kwargs):
                self.words += len(block)
                yield block

        return blocks

    def solve(self, states, ops):
        out = {"ame": {}, "distance": {}, "rs12_11": None}
        for cs in states:
            res = ops.call(pa.is_ame_code, cs)
            out["ame"][cs.p] = res if res is ops.FAILED else (res.ok, res.reason, res.witness)
        for cs in states:
            if cs.p in self.ENUM_PRIMES:
                # Count the words min_hamming_distance enumerates.
                self.words = 0
                undo = rebind(codes_module, "codeword_blocks", self._counted)
                try:
                    d = ops.call(pa.min_hamming_distance, cs)
                finally:
                    restore(undo)
                out["distance"][cs.p] = (d, self.words)
        if ops.call(cli, "reproduce", "rs12_11", "--out", _fresh(self.report_path)) is not ops.FAILED:
            out["rs12_11"] = _read_reproduce(self.report_path)
        return out

    def check(self, states, result) -> list[str]:
        errors = []
        for cs in states:
            p, n, k = cs.p, cs.n, cs.k
            ame = result["ame"][p]
            if ame is not Ops.FAILED and ame[0] is not True:
                errors.append(f"RS({p}): is_ame_code says {ame}")
            if p in result["distance"]:
                d, words = result["distance"][p]
                if d is not Ops.FAILED and (d != n - k + 1 or words != p**k):
                    errors.append(f"RS({p}): d_H = {d} (MDS needs {n - k + 1}), "
                                  f"{words} words enumerated (p^k = {p**k})")
            rows = cs.gen.a.tolist()
            for cut in self.samples[p]:
                if oracles.rank_mod_p([[r[j] for j in cut] for r in rows], p) != k:
                    errors.append(f"RS({p}): balanced cut {cut} is singular")
        block = result["rs12_11"]
        if block is not None:
            details = block["details"]
            if block["status"] != "pass" or (details["n"], details["k"], details["min_distance"],
                                             details["ame"]) != (12, 6, 7, True):
                errors.append(f"reproduce rs12_11: status {block['status']}, details {details}")
        return errors

    def check_final(self, states, result) -> list[str]:
        return []


class CodeRanks:
    """The d2 census and the RS family in one round: GF(2) ranks on many
    rectangular cuts, then odd-p ranks on square balanced cuts and codeword
    enumeration. They share a workload so that, within the benchmark's total
    time, a run is long enough to average over a shared host's speed swings."""

    name = "code-ranks"
    setup_reps = 11

    def __init__(self, seed: int, out_dir: Path):
        self.parts = (D2CodeCensus(seed, out_dir), RsAmeFamily(seed, out_dir))

    def setup(self):
        return tuple(part.setup() for part in self.parts)

    def check_setup(self, art) -> list[str]:
        return [e for part, a in zip(self.parts, art) for e in part.check_setup(a)]

    def solve(self, art, ops):
        return tuple(part.solve(a, ops) for part, a in zip(self.parts, art))

    def check(self, art, result) -> list[str]:
        return [e for part, a, r in zip(self.parts, art, result) for e in part.check(a, r)]

    def check_final(self, art, result) -> list[str]:
        return [e for part, a, r in zip(self.parts, art, result) for e in part.check_final(a, r)]


WORKLOADS = {w.name: w for w in (D1DenseProfile, CodeRanks)}
