"""Von Neumann entropies over arbitrary bipartitions: the dense spectrum
(the oracle), the AME verifier, bipartition enumeration/sampling, and the
one engine and row fold behind `analyze` and `reproduce`, which take cuts
as int64 masks, site 1 the top of n bits. The engine ranks a qubit state's
cuts one by one, or, for a call of many cuts of a state of at most
TABLE_MAX_SITES sites, reads them from one table of all 2^n cuts.

Sites are numbered 1..n (site j is the j-th tensor factor, most significant
first), matching the basis convention of the states module. Entropies are in
bits (base-2 logarithm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, log2
from typing import Callable, Iterator, Optional

import numpy as np

from . import stabilizer
from .codes import LinearCodeState, check_entropy_table, code_entropy, graph_entropy
from .errors import BadSpectrum, InvalidCut, TooLarge
from .polytope import Polytope, opposite_face_pair
from .states import StateVector

EIG_CUTOFF = 1e-12
INTEGER_TOL = 1e-9
EXHAUSTIVE_BUDGET = 200_000
SPARSE_SUPPORT_MAX = 4096
# Qubit states up to this many sites may answer large calls from one table
# of 2^n entropies (`check_entropy_table`).
TABLE_MAX_SITES = 20
# An int64 cut mask holds at most this many sites.
MASK_MAX_SITES = 62
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
        if not 1 <= sites[0] <= sites[-1] <= self.n:
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


def _check_block_size(n: int, m: int, budget: Optional[int] = None) -> None:
    if not 1 <= m <= n - 1:
        raise InvalidCut(f"block size {m} of {n} sites must be in 1..{n - 1}")
    if budget is not None and comb(n, m) > budget:
        raise TooLarge(
            f"C({n},{m}) = {comb(n, m)} exceeds exhaustive budget {budget}; sample instead"
        )


def _unchecked_bipartition(n: int, sites: tuple[int, ...]) -> Bipartition:
    """A Bipartition built without `__post_init__`, for sites already known
    to be sorted, distinct and in 1..n, with 1 <= len(sites) <= n - 1."""
    bp = object.__new__(Bipartition)
    fields = bp.__dict__
    fields["n"] = n
    fields["a_sites"] = sites
    return bp


def exhaustive_partitions(n: int, m: int, budget: int = EXHAUSTIVE_BUDGET) -> Iterator[Bipartition]:
    """Every m-block of n sites, in `combinations` order. The block size and
    the budget are validated once, at the call; `combinations` then yields
    sorted, distinct sites in 1..n, so no block is checked again."""
    _check_block_size(n, m, budget)
    return (_unchecked_bipartition(n, sites) for sites in combinations(range(1, n + 1), m))


def exhaustive_masks(n: int, m: int, budget: int = EXHAUSTIVE_BUDGET) -> np.ndarray:
    """Every m-block of n sites as an int64 mask, site 1 the top bit, in
    `combinations` order (descending mask order). After round u, cells[j]
    holds the j-blocks of the last j + u sites: those holding the first of
    them, then those without it. At most C(n + 1, m) masks are held."""
    _check_block_size(n, m, budget)
    if n > MASK_MAX_SITES:
        raise TooLarge(f"{n} sites do not fit a {MASK_MAX_SITES}-site cut mask")
    cells = [np.array([(1 << j) - 1], dtype=np.int64) for j in range(m + 1)]
    for u in range(1, n - m + 1):
        for j in range(1, m + 1):
            cells[j] = np.concatenate((cells[j - 1] | 1 << (j + u - 1), cells[j]))
    return cells[m]


def mask_sites(n: int, mask: int) -> tuple[int, ...]:
    """The 1-based sites of an n-site cut mask, site 1 the top bit."""
    return tuple(j for j in range(1, n + 1) if mask >> (n - j) & 1)


def partition_masks(n: int, bps: list[Bipartition]) -> np.ndarray:
    """The masks of a list of bipartitions, each checked against n sites."""
    for bp in bps:
        _check_cut(n, bp)
    return np.array([sum(1 << (n - s) for s in bp.a_sites) for bp in bps], dtype=np.int64)


def sample_partitions(n: int, m: int, count: int, seed: int) -> list[Bipartition]:
    """Distinct uniform m-subsets, reproducible from the seed (PCG64)."""
    _check_block_size(n, m)
    if count < 1:
        raise InvalidCut(f"sample count {count} must be at least 1")
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
    if m is not None:
        _check_block_size(n, m)
    blocks: list[tuple[int, ...]] = []
    for f in pt.faces:
        blocks.append(tuple(sorted(v + 1 for v in f)))
    if pt.name != "tetrahedron":
        for a in range(pt.face_count):
            b = opposite_face_pair(pt, a)
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

    def fold(self, entropies, n: int, masks) -> "SweepRow":
        """Add the n-site cut masks `masks`, whose entropies `entropies`
        computes. A value's witness is its first cut in the order given;
        only witnesses are turned into sites."""
        masks = np.asarray(masks, dtype=np.int64)
        s = np.asarray(entropies(masks), dtype=np.float64)
        rounded = np.round(s) + 0.0  # + 0.0 turns -0.0 into 0.0
        near = np.abs(s - rounded) <= INTEGER_TOL
        self.non_integer.extend(s[~near].tolist())
        values, first = np.unique(np.where(near, rounded, s), return_index=True)
        for i in np.argsort(first):
            self.witnesses.setdefault(float(values[i]), mask_sites(n, int(masks[first[i]])))
        self.examined += len(masks)
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


def entropy_engine(state) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """The one place that picks how a state's cut entropies are computed.
    A LinearCodeState uses `code_entropy` (CODE_RANK), for p = 2 the
    STABILIZER formula with Z = 0. A dense state is recognised once as a
    stabilizer state and uses the rank formula of its check matrix
    (STABILIZER), else dense spectra (DENSE). Returns the function from
    cut masks (int64, site 1 the top bit, each in 1..2^n - 2) to their
    entropies (bits, float64), and the backend's name. A state of more than
    MASK_MAX_SITES sites raises TooLarge.

    A qubit state of at most TABLE_MAX_SITES sites answers a call of at
    least 2^n / n cuts from `check_entropy_table` of its check rows, built
    on the first such call and kept; smaller calls rank each cut's smaller
    side with `graph_entropy` of its graph rows. Both give the same
    integers."""
    n = state.n
    if n > MASK_MAX_SITES:
        raise TooLarge(f"{n} sites do not fit a {MASK_MAX_SITES}-site cut mask")
    if isinstance(state, LinearCodeState):
        backend, qubits = CODE_RANK, state if state.p == 2 else None
    else:
        state.check_normalized()
        qubits = stabilizer.from_statevector(state)
        backend = DENSE if qubits is None else STABILIZER
    table = None

    def per_cut(mask):
        if qubits is not None:
            if 2 * mask.bit_count() > n:
                mask ^= (1 << n) - 1
            sites = []
            while mask:
                top = mask.bit_length()
                mask ^= 1 << top - 1
                sites.append(n - top)
            return graph_entropy(qubits.graph_rows, sites)
        if backend == CODE_RANK:
            return code_entropy(state, [s - 1 for s in mask_sites(n, mask)])
        return entropy(state, Bipartition(n, mask_sites(n, mask)))

    def entropies(masks):
        nonlocal table
        masks = np.asarray(masks, dtype=np.int64)
        if masks.size and not (masks.min() >= 1 and masks.max() <= (1 << n) - 2):
            raise InvalidCut(f"cut masks must be proper and nonempty masks of {n} sites")
        if qubits is None or n > TABLE_MAX_SITES or len(masks) * n < 1 << n:
            return np.array([per_cut(mask) for mask in masks.tolist()], dtype=np.float64)
        if table is None:
            table = check_entropy_table(qubits.check_rows, n)
        return table[masks].astype(np.float64)

    return entropies, backend


def entropy_sweep(sv: StateVector, plan, state_id: str = "state") -> EntropyReport:
    """plan: iterable of (m, mode) where mode is 'exhaustive',
    ('sample', count, seed), or ('structured', polytope). The state is
    recognised once; every row records the backend that computed it. The
    whole plan is checked (each block size against 1..n-1, exhaustive rows
    against the enumeration budget, sampled and structured cuts against the
    state's n) before any row is computed."""
    entropies, backend = entropy_engine(sv)
    n = sv.n
    rows = []
    for m, mode in plan:
        if mode == "exhaustive":
            row = SweepRow(m, "exhaustive", backend=backend)
            masks = exhaustive_masks(n, m)
        elif mode[0] == "sample":
            _, count, seed = mode
            row = SweepRow(m, "sampled", seed, backend)
            masks = partition_masks(n, sample_partitions(n, m, count, seed))
        elif mode[0] == "structured":
            row = SweepRow(m, "structured", backend=backend)
            masks = partition_masks(n, structured_partitions(mode[1], m))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        rows.append((row, masks))
    return EntropyReport(state_id, [row.fold(entropies, n, masks) for row, masks in rows])
