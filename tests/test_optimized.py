"""Input validation must survive `python -O`, which strips asserts."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import polyame

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile

    from polyame import contraction
    from polyame.codes import (
        LinearCodeState, check_entropy, code_entropy, codeword_census, from_parity_checks,
        rs_code_state)
    from polyame.contraction import AgreementContraction, _assign_all, build_hovering, contract
    from polyame.entropy import Bipartition, entropy_engine, entropy_sweep, sample_partitions
    from polyame.errors import (
        BadStateFile, InvalidContraction, InvalidCut, NoOppositeFace, NotPrime, TooLarge)
    from polyame.gf import GfMatrix
    from polyame.polytope import Polytope, face_parity_matrix, opposite_face_pair, platonic
    from polyame.stabilizer import from_statevector
    from polyame.stateio import read_state
    from polyame.states import ame52_table1, ame62, normalized

    if __debug__:
        sys.exit("not running under -O")

    def bad_header():
        with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
            fh.write(b"POLYAME\\x00" + bytes([1, 0, 2, 1, 0, 0, 0, 0, 0]))
            fh.flush()
            read_state(fh.name)

    def over_budget():
        # the default face order holds 2^18 amplitudes at its largest step
        contraction.DENSE_BUDGET = 2**12
        build_hovering()

    # A hexagonal prism's square face 2 has three disjoint faces, all at
    # face distance 2: no unique opposite face.
    prism = Polytope("hexagonal-prism", 12, (tuple(range(6)), tuple(range(6, 12))) + tuple(
        (i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6) for i in range(6)))

    dodeca = platonic("dodecahedron")
    d2 = from_parity_checks(face_parity_matrix(dodeca))
    hovering = AgreementContraction(dodeca, _assign_all(dodeca, ame62(), None), "hovering")
    cases = {
        "vertex_sites": (InvalidContraction, lambda: AgreementContraction(
            dodeca, _assign_all(dodeca, ame62(), None), "vertex")),
        "hovering_sites": (InvalidContraction, lambda: AgreementContraction(
            dodeca, _assign_all(dodeca, ame52_table1(), None), "hovering")),
        "hover_position": (InvalidContraction, lambda: contract(hovering, hover_position=9)),
        "face_order": (InvalidContraction, lambda: contract(hovering, face_order=[0] * 12)),
        "improper_cut": (InvalidCut, lambda: Bipartition(4, (1, 2, 3, 4))),
        "repeated_site": (InvalidCut, lambda: code_entropy(d2, [0, 0])),
        "mask_above_range": (InvalidCut, lambda: check_entropy(d2.check_columns, 20, 1 << 20)),
        "negative_mask": (InvalidCut, lambda: check_entropy(d2.check_columns, 20, -1)),
        "engine_negative_mask": (InvalidCut, lambda: entropy_engine(d2)[0]([3, -1])),
        "engine_empty_mask": (InvalidCut, lambda: entropy_engine(d2)[0]([0])),
        "engine_full_mask": (InvalidCut, lambda: entropy_engine(d2)[0]([(1 << 20) - 1])),
        "engine_wide_mask": (InvalidCut, lambda: entropy_engine(d2)[0]([1 << 20])),
        "engine_mask_sites": (TooLarge, lambda: entropy_engine(
            LinearCodeState(2, 63, GfMatrix([[1] * 63], 2)))),
        "sweep_cut_sites": (InvalidCut, lambda: entropy_sweep(
            d2, [(3, ("structured", platonic("icosahedron")))])),
        "sample_count": (InvalidCut, lambda: sample_partitions(6, 2, 0, seed=1)),
        "composite_modulus": (NotPrime, lambda: GfMatrix([[1, 0], [0, 1]], 6)),
        "state_file_header": (BadStateFile, bad_header),
        "enumeration_budget": (TooLarge, lambda: codeword_census(rs_code_state(17))),
        "contraction_budget": (TooLarge, over_budget),
        "opposite_face": (NoOppositeFace, lambda: opposite_face_pair(prism, 2)),
    }
    for name, (exc, make) in cases.items():
        try:
            make()
        except exc:
            continue
        except Exception as other:
            sys.exit(f"{name}: {type(other).__name__}: {other}")
        sys.exit(f"{name}: nothing raised")
    # Supports whose basis candidates do not rise have no stabilizer form;
    # the second one's candidates are dependent.
    for amps in ([0, 1, 1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 1, 1, 1, 1, 1, 1] + [0] * 6):
        try:
            found = from_statevector(normalized(len(amps).bit_length() - 1, 2, amps))
        except Exception as other:
            sys.exit(f"candidates_do_not_rise: {type(other).__name__}: {other}")
        if found is not None:
            sys.exit("candidates_do_not_rise: recognised")
    print("ok")
    """
)


def test_validation_survives_optimized_python():
    src = str(Path(polyame.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert (res.returncode, res.stdout.strip()) == (0, "ok"), res.stderr
