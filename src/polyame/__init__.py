"""polyame: perfect-tensor states on Platonic solids.

Builds maximally-entangled (AME) resource states, contracts copies of them
over the faces of Platonic solids, and analyzes the entanglement of the
resulting many-body states, with exact prime-field linear algebra for the
associated classical codes.
"""

from .codes import (
    AmeCodeResult,
    LinearCodeState,
    code_entropy,
    codeword_census,
    codewords,
    dense_statevector,
    from_parity_checks,
    is_ame_code,
    min_hamming_distance,
    rs_code_state,
    rs_generator,
)
from .contraction import (
    AgreementContraction,
    FaceAssignment,
    build_d1,
    build_d2,
    build_hovering,
    contract,
    sign_lemma_check,
)
from .entropy import (
    AmeVerdict,
    Bipartition,
    EntropyReport,
    entropy,
    entropy_engine,
    entropy_sweep,
    exhaustive_partitions,
    sample_partitions,
    structured_partitions,
    sweep_entropies,
    verify_ame,
)
from .errors import (
    BadSpectrum,
    BadStateFile,
    InvalidCode,
    InvalidCut,
    NoOppositeFace,
    NotNormalized,
    NotPrime,
    PolyameError,
    TooLarge,
    UnknownSolid,
    UnsupportedPrime,
    ZeroState,
)
from .gf import GfMatrix, PrimeField, is_prime, matmul, nullspace, rank, rref
from .polytope import (
    Polytope,
    face_adjacency_distance,
    face_parity_matrix,
    opposite_face_pair,
    platonic,
    table3,
)
from .reports import PaperTableResult, reproduce, reproduce_all
from .stabilizer import StabilizerState, from_statevector, stabilizer_entropy
from .stateio import read_state, write_state
from .states import (
    StateVector,
    ame43,
    ame52_rotinv,
    ame52_table1,
    ame62,
    cyclic_shift,
    ghz,
)

__version__ = "0.1.0"
