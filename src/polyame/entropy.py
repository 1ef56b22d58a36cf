"""Von Neumann entropies over arbitrary bipartitions: the dense spectrum
(the oracle), the AME verifier, bipartition enumeration/sampling, and the
one engine and row fold behind `analyze` and `reproduce`.

Sites are numbered 1..n (site j is the j-th tensor factor, most significant
first), matching the basis convention of the states module. Entropies are in
bits (base-2 logarithm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from math import comb, log2
from typing import Callable, Iterator, Optional

import numpy as np

from . import stabilizer
from .codes import LinearCodeState, code_entropy
from .errors import BadSpectrum, InvalidCut, TooLarge
from .polytope import Polytope, opposite_face_pair
from .states import StateVector

EIG_CUTOFF = 1e-12
INTEGER_TOL = 1e-9
EXHAUSTIVE_BUDGET = 200_000
SPARSE_SUPPORT_MAX = 4096
# The backends, by the name each row and report carries.
DENSE, STABILIZER, CODE_RANK = "dense", "stabilizer", "code-rank"


@dataclass(frozen=True)
class Bipartition:
    n: int
    a_sites: tuple[int, ...]

    def __post_init__(self):
        sites = tuple(sorted(self.a_sites))
        object.__setattr__(self, "a_sites", sites)
        if not 1 <= len(sites) <= self.n - 1:
            raise InvalidCut(f"block {sites} of {self.n} sites must be proper and nonempty")
        if len(set(sites)) != len(sites):
            raise InvalidCut(f"block {sites} repeats a site")
        if not all(1 <= s <= self.n for s in sites):
            raise InvalidCut(f"block {sites} has sites outside 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.a_sites)

    def complement(self) -> "Bipartition":
        inside = set(self.a_sites)
        return Bipartition(self.n, tuple(s for s in range(1, self.n + 1) if s not in inside))


def _spectrum_dense(sv: StateVector, bp: Bipartition) -> np.ndarray:
    """Nonzero Schmidt spectrum via the Gram matrix on the smaller side."""
    n, d = sv.n, sv.d
    a_axes = tuple(s - 1 for s in bp.a_sites)
    b_axes = tuple(j for j in range(n) if j not in a_axes)
    m = len(a_axes)
    mat = (
        sv.amps.reshape((d,) * n)
        .transpose(a_axes + b_axes)
        .reshape(d**m, d ** (n - m))
    )
    if mat.shape[0] <= mat.shape[1]:
        gram = mat @ mat.T
    else:
        gram = mat.T @ mat
    return np.linalg.eigvalsh(gram)


def _spectrum_sparse(sv: StateVector, bp: Bipartition, nz: np.ndarray) -> np.ndarray:
    """Same spectrum computed from the nonzero amplitudes only: compress the
    distinct row and column index patterns and take the small Gram matrix."""
    n, d = sv.n, sv.d
    a_axes = [s - 1 for s in bp.a_sites]
    b_axes = [j for j in range(n) if j not in a_axes]
    digits = [(nz // d ** (n - 1 - ax)) % d for ax in range(n)]
    row = np.zeros(nz.shape, dtype=np.int64)
    for ax in a_axes:
        row = row * d + digits[ax]
    col = np.zeros(nz.shape, dtype=np.int64)
    for ax in b_axes:
        col = col * d + digits[ax]
    _, ri = np.unique(row, return_inverse=True)
    _, ci = np.unique(col, return_inverse=True)
    small = np.zeros((ri.max() + 1, ci.max() + 1), dtype=np.float64)
    np.add.at(small, (ri, ci), sv.amps[nz])
    if small.shape[0] <= small.shape[1]:
        gram = small @ small.T
    else:
        gram = small.T @ small
    return np.linalg.eigvalsh(gram)


def _check_cut(n: int, bp: Bipartition) -> None:
    if bp.n != n:
        raise InvalidCut(f"cut of {bp.n} sites applied to a {n}-site state")


def entropy(sv: StateVector, bp: Bipartition) -> float:
    """Von Neumann entropy (bits) of the reduction to bp.a_sites, from the
    dense spectrum. This is the oracle the stabilizer path is checked
    against; it never routes through that path."""
    _check_cut(sv.n, bp)
    sv.check_normalized()
    small_side = min(bp.m, sv.n - bp.m)
    nz = None
    if sv.d**small_side > SPARSE_SUPPORT_MAX:
        nz = np.nonzero(sv.amps)[0]
        if nz.size > SPARSE_SUPPORT_MAX:
            nz = None
    lam = (
        _spectrum_sparse(sv, bp, nz)
        if nz is not None
        else _spectrum_dense(sv, bp)
    )
    if not lam.min() > -1e-12:
        raise BadSpectrum(f"Gram matrix has a significantly negative eigenvalue {lam.min()}")
    if not abs(lam.sum() - 1.0) < 1e-9:
        raise BadSpectrum(f"Schmidt spectrum sums to {lam.sum()}, not 1")
    lam = lam[lam > EIG_CUTOFF]
    return float(-(lam * np.log2(lam)).sum())


@dataclass(frozen=True)
class AmeVerdict:
    ok: bool
    worst_deviation: float
    worst_sites: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_ame(sv: StateVector, tol: float = 1e-10) -> AmeVerdict:
    """Check that every reduction to floor(n/2) sites is maximally mixed
    (checking the balanced cuts suffices: smaller blocks are partial traces
    of balanced ones)."""
    m = sv.n // 2
    target = m * log2(sv.d)
    worst, worst_sites = -1.0, ()
    for sites in combinations(range(1, sv.n + 1), m):
        dev = abs(entropy(sv, Bipartition(sv.n, sites)) - target)
        if dev > worst:
            worst, worst_sites = dev, sites
    return AmeVerdict(worst < tol, worst, worst_sites)


def exhaustive_partitions(n: int, m: int, budget: int = EXHAUSTIVE_BUDGET) -> Iterator[Bipartition]:
    total = comb(n, m)
    if total > budget:
        raise TooLarge(
            f"C({n},{m}) = {total} exceeds exhaustive budget {budget}; sample instead"
        )
    for sites in combinations(range(1, n + 1), m):
        yield Bipartition(n, sites)


def sample_partitions(n: int, m: int, count: int, seed: int) -> list[Bipartition]:
    """Distinct uniform m-subsets, reproducible from the seed (PCG64)."""
    total = comb(n, m)
    count = min(count, total)
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < count:
        sites = tuple(sorted(rng.choice(n, size=m, replace=False) + 1))
        if sites not in seen:
            seen.add(sites)
            out.append(Bipartition(n, tuple(int(s) for s in sites)))
    return out


def structured_partitions(pt: Polytope, m: Optional[int] = None) -> list[Bipartition]:
    """Geometry-derived blocks: single faces, opposite-face pairs, and edge
    neighborhoods (the two faces adjacent across an edge). Filtered to block
    size m when given."""
    n = pt.vertex_count
    blocks: list[tuple[int, ...]] = []
    for f in pt.faces:
        blocks.append(tuple(sorted(v + 1 for v in f)))
    if pt.name != "tetrahedron":
        seen_pairs = set()
        for a in range(pt.face_count):
            b = opposite_face_pair(pt, a)
            if (min(a, b), max(a, b)) in seen_pairs:
                continue
            seen_pairs.add((min(a, b), max(a, b)))
            blocks.append(tuple(sorted(v + 1 for v in pt.faces[a] + pt.faces[b])))
    for a, b in pt.edge_faces.values():
        blocks.append(tuple(sorted({v + 1 for v in pt.faces[a] + pt.faces[b]})))
    out = []
    seen: set[tuple[int, ...]] = set()
    for sites in blocks:
        if sites in seen or not 1 <= len(sites) <= n - 1:
            continue
        seen.add(sites)
        if m is None or len(sites) == m:
            out.append(Bipartition(n, sites))
    return out


@dataclass
class SweepRow:
    """The entropies of one block size's cuts, folded into the set of values
    seen, each with the first cut that attains it. An entropy within
    INTEGER_TOL of an integer counts as that integer; any other is kept raw
    and also listed in `non_integer`."""

    m: int
    mode: str
    seed: Optional[int] = None
    backend: str = DENSE
    witnesses: dict[float, tuple[int, ...]] = field(default_factory=dict)
    examined: int = 0
    non_integer: list[float] = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        return sorted(self.witnesses)

    def fold(self, entropies, parts) -> "SweepRow":
        """Add the cuts `parts`, whose entropies `entropies` computes."""
        bps = list(parts)
        for bp, s in zip(bps, entropies(bps)):
            rounded = round(s)
            if abs(s - rounded) <= INTEGER_TOL:
                val = float(rounded)
            else:
                val = s
                self.non_integer.append(s)
            self.witnesses.setdefault(val, bp.a_sites)
        self.examined += len(bps)
        return self

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "values": self.values,
            "witnesses": {str(v): list(self.witnesses[v]) for v in self.values},
            "examined": self.examined,
            "mode": self.mode,
            "seed": self.seed,
            "non_integer": self.non_integer,
            "backend": self.backend,
        }


@dataclass
class EntropyReport:
    state_id: str
    rows: list[SweepRow]
    eig_cutoff: float = EIG_CUTOFF
    integer_tolerance: float = INTEGER_TOL

    def to_dict(self) -> dict:
        return {
            "state_id": self.state_id,
            "rows": [row.to_dict() for row in self.rows],
            "tolerances": {
                "eig_cutoff": self.eig_cutoff,
                "integer_tolerance": self.integer_tolerance,
            },
        }


def batch_entropies(sv: StateVector, bps: list) -> list[float]:
    """Dense entropies of a list of bipartitions, in order."""
    return [entropy(sv, bp) for bp in bps]


def entropy_engine(state) -> tuple[Callable[[list], list[float]], str]:
    """The one place that picks how a state's cut entropies are computed.
    A LinearCodeState uses the rank formula of its generator (CODE_RANK).
    A dense state is recognised once as a stabilizer state and uses the
    rank formula of its quadratic form (STABILIZER), else dense spectra
    (DENSE). Returns the function from a list of bipartitions to their
    entropies (bits), and the backend's name."""
    if isinstance(state, LinearCodeState):
        backend, cut_entropy = CODE_RANK, partial(code_entropy, state)
    else:
        state.check_normalized()
        st = stabilizer.from_statevector(state)
        if st is None:
            return (lambda bps: batch_entropies(state, bps)), DENSE
        backend, cut_entropy = STABILIZER, partial(stabilizer.stabilizer_entropy, st)
    n = state.n

    def entropies(bps):
        out = []
        for bp in bps:
            _check_cut(n, bp)
            out.append(float(cut_entropy([s - 1 for s in bp.a_sites])))
        return out

    return entropies, backend


def entropy_sweep(sv: StateVector, plan, state_id: str = "state") -> EntropyReport:
    """plan: iterable of (m, mode) where mode is 'exhaustive',
    ('sample', count, seed), or ('structured', polytope). The state is
    recognised once; every row records the backend that computed it."""
    entropies, backend = entropy_engine(sv)
    rows = []
    for m, mode in plan:
        if mode == "exhaustive":
            row = SweepRow(m, "exhaustive", backend=backend)
            parts = exhaustive_partitions(sv.n, m)
        elif mode[0] == "sample":
            _, count, seed = mode
            row = SweepRow(m, "sampled", seed, backend)
            parts = sample_partitions(sv.n, m, count, seed)
        elif mode[0] == "structured":
            row = SweepRow(m, "structured", backend=backend)
            parts = structured_partitions(mode[1], m)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        rows.append(row.fold(entropies, parts))
    return EntropyReport(state_id, rows)
