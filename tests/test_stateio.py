"""Binary state file round-trips and header validation."""

import math
import struct

import numpy as np
import pytest
from click.testing import CliRunner

from polyame import stateio
from polyame.cli import main
from polyame.contraction import build_d1, build_d2, build_hovering
from polyame.errors import BadStateFile, PolyameError
from polyame.stateio import MAGIC, read_state, write_state
from polyame.states import CATALOG, StateVector, ame52_table1, ghz, normalized


def test_int8_round_trip_bit_exact(tmp_path):
    sv = ame52_table1()
    path = tmp_path / "s.bin"
    enc = write_state(path, sv)
    assert enc == "int8"
    back = read_state(path)
    assert (back.n, back.d) == (5, 2)
    assert np.array_equal(back.amps, sv.amps)
    # 16-byte header + 32 signed bytes
    assert path.stat().st_size == 16 + 32


def test_float64_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    sv = normalized(3, 2, rng.normal(size=8))
    path = tmp_path / "s.bin"
    assert write_state(path, sv) == "float64"
    back = read_state(path)
    assert np.array_equal(back.amps, sv.amps)


def test_auto_picks_int8_for_uniform_support(tmp_path):
    sv = ghz(4)
    path = tmp_path / "s.bin"
    assert write_state(path, sv) == "int8"
    assert np.array_equal(read_state(path).amps, sv.amps)


def test_forced_encodings(tmp_path):
    path = tmp_path / "s.bin"
    bad = normalized(1, 2, [3.0, 4.0])  # 4/3 is not an integer ratio
    assert write_state(path, bad) == "float64"
    assert np.array_equal(read_state(path).amps, bad.amps)


def test_bad_magic(tmp_path):
    path = tmp_path / "s.bin"
    path.write_bytes(b"NOTMAGIC" + bytes(40))
    with pytest.raises(ValueError):
        read_state(path)


def test_bad_version(tmp_path):
    path = tmp_path / "s.bin"
    good = tmp_path / "good.bin"
    write_state(good, ghz(2))
    data = bytearray(good.read_bytes())
    data[8] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        read_state(path)


def test_magic_constant():
    assert MAGIC == b"POLYAME\x00" and len(MAGIC) == 8


def test_d1_round_trip_bit_exact(tmp_path):
    """d1's amplitudes are a few ulp off +-2^-10, which int8 decoding would
    round away, so auto mode stores them verbatim."""
    sv = build_d1()
    path = tmp_path / "d1.bin"
    assert write_state(path, sv) == "float64"
    assert np.array_equal(read_state(path).amps, sv.amps)


def test_d2_round_trip_stays_int8(tmp_path):
    sv = build_d2()
    path = tmp_path / "d2.bin"
    assert write_state(path, sv) == "int8"
    assert np.array_equal(read_state(path).amps, sv.amps)
    # One ulp off in the last nonzero amplitude, far past the first chunk the
    # int8 trial decodes, and the state no longer decodes from int8.
    amps = sv.amps.copy()
    last = np.flatnonzero(amps)[-1]
    amps[last] = np.nextafter(amps[last], 1.0)
    off = StateVector(sv.n, 2, amps)
    assert write_state(path, off) == "float64"
    assert np.array_equal(read_state(path).amps, amps)


def _rounding_trial(amps, chunk):
    """The int8 trial that rounds every chunk before it decodes any, kept only
    as an oracle for `stateio._as_int8_multiple`."""
    chunks = [amps[i : i + chunk] for i in range(0, amps.size, chunk)]
    scale = min(np.min(np.abs(c), where=c != 0, initial=np.inf) for c in chunks)
    if scale == np.inf:
        return None
    ints = np.empty(amps.size, dtype=np.int8)
    int_chunks = [ints[i : i + chunk] for i in range(0, amps.size, chunk)]
    square_sum = 0
    for c, out in zip(chunks, int_chunks):
        rounded = np.rint(c / scale)
        if np.abs(rounded).max() > 127:
            return None
        out[:] = rounded
        square_sum += int(rounded @ rounded)
    norm = np.sqrt(float(square_sum))
    if all(np.array_equal(out / norm, c) for c, out in zip(chunks, int_chunks)):
        return ints
    return None


def _assert_matches_rounding_trial(amps):
    with np.errstate(over="ignore"):  # the oracle divides by subnormal scales
        want = _rounding_trial(amps, stateio.INT8_CHUNK)
    got = stateio._as_int8_multiple(amps)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()
        # The exactness argument: the decoder's norm is the exact sum's root.
        square_sum = int(got.astype(np.int64) @ got.astype(np.int64))
        assert np.linalg.norm(got.astype(float)) == math.sqrt(square_sum)
    return got is not None


def test_int8_trial_matches_rounding_trial(monkeypatch):
    """Seeded integer vectors over several chunks, each as decoded, with one
    amplitude one ulp off in its first, a middle or its last chunk, and with
    its last nonzero amplitude dropped (every chunk may decode against the
    norm the smallest amplitude fixes while the squares no longer sum to it)."""
    chunk = 8
    monkeypatch.setattr(stateio, "INT8_CHUNK", chunk)
    rng = np.random.default_rng(2020)
    encoded = 0
    for i in range(2000):
        bound = (1, 3, 127, 300)[i % 4]
        size = int(rng.integers(1, 5 * chunk + 1))
        ints = rng.integers(-bound, bound + 1, size=size)
        if i % 8 < 4:
            ints[ints == 0] = 1
        else:
            ints[rng.random(size) < 0.3] = 0
        if not ints.any():
            ints[-1] = bound
        amps = ints / np.linalg.norm(ints.astype(float))
        encoded += _assert_matches_rounding_trial(amps)
        start = (0, (size // chunk // 2) * chunk, (size - 1) // chunk * chunk)[i % 3]
        at = int(rng.integers(start, min(start + chunk, size)))
        moved = amps.copy()
        moved[at] = np.nextafter(moved[at], (-1.0, 1.0)[i % 2])
        _assert_matches_rounding_trial(moved)
        dropped = amps.copy()
        dropped[np.flatnonzero(dropped)[-1]] = 0.0
        _assert_matches_rounding_trial(dropped)
    assert encoded > 500


def _decoded(ints):
    ints = np.asarray(ints, dtype=float)
    return ints / np.linalg.norm(ints)


def _with(amps, at, value):
    amps = amps.copy()
    amps[at] = value
    return amps


_FLAT = np.full(40, 1 / math.sqrt(40))


@pytest.mark.parametrize(
    "amps",
    [
        _decoded([127, -1, *[0] * 20, 64, 1]),  # the largest k first
        _decoded([-127, *[3] * 30, 1, 127]),
        _decoded([1]),  # an amplitude of exactly 1
        _with(_FLAT, 0, 5e-324),  # subnormal amplitudes, first chunk or later
        _with(_FLAT, 5, 5e-324),
        _with(_FLAT, 33, 2.5e-310),
        _with(np.zeros(40), 0, 5e-324),
        _with(np.zeros(40), 33, 2.5e-310),
    ],
    ids=["k127-first", "k127-both-ends", "one", "sub-0", "sub-5", "sub-33", "sub-only-0", "sub-only-33"],
)
def test_int8_trial_edge_cases(monkeypatch, amps):
    monkeypatch.setattr(stateio, "INT8_CHUNK", 8)
    _assert_matches_rounding_trial(amps)


@pytest.mark.parametrize(
    "make",
    [build_d1, build_d2, build_hovering, *CATALOG.values()],
    ids=["d1", "d2", "hovering", *CATALOG],
)
def test_int8_trial_matches_rounding_trial_on_paper_states(make):
    _assert_matches_rounding_trial(make().amps)


def test_d1_is_ruled_out_before_any_rounding(monkeypatch, tmp_path):
    """d1's first amplitude decodes from no int8 vector, so the trial rounds
    no chunk; d2 still rounds its way to int8."""
    calls = []
    rint = np.rint

    def counting_rint(*args, **kwargs):
        calls.append(1)
        return rint(*args, **kwargs)

    monkeypatch.setattr(stateio.np, "rint", counting_rint)
    assert write_state(tmp_path / "d1.bin", build_d1()) == "float64"
    assert not calls
    assert write_state(tmp_path / "d2.bin", build_d2()) == "int8"
    assert calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "at, value",
    [(0, np.nan), (5, np.nan), (70_000, np.nan), (0, np.inf), (70_000, -np.inf)],
)
def test_non_finite_amplitudes_write_float64(tmp_path, at, value):
    """Non-finite amplitudes, in the first chunk or a later one, are written
    verbatim, with no warning from casting them to int8."""
    amps = ghz(17).amps.copy()
    amps[at] = value
    path = tmp_path / "s.bin"
    assert write_state(path, StateVector(17, 2, amps)) == "float64"
    assert read_state(path).amps.tobytes() == amps.tobytes()
    small = np.array([value, 0.0, 0.0, 0.0])
    assert write_state(path, StateVector(2, 2, small)) == "float64"
    assert read_state(path).amps.tobytes() == small.tobytes()


def _header(n, d, enc=1, version=1):
    return MAGIC + struct.pack("<BBBB4x", version, n, d, enc)


@pytest.mark.parametrize(
    "data",
    [
        _header(255, 255),  # 255^255 amplitudes: over budget, checked before reading
        _header(0, 2) + bytes(1),
        _header(3, 1) + bytes(1),
        _header(3, 2, enc=7) + bytes(8),
        _header(3, 2) + bytes(7),  # truncated int8 payload
        _header(3, 2, enc=2) + bytes(8 * 8 - 1),  # truncated float64 payload
        _header(3, 2) + bytes(9),  # trailing bytes
        _header(1, 2) + bytes(2),  # int8 zero vector: nothing to normalise
        MAGIC + bytes(3),  # truncated header
    ],
)
def test_malformed_header_or_payload(tmp_path, data):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(BadStateFile) as info:
        read_state(path)
    assert isinstance(info.value, PolyameError) and isinstance(info.value, ValueError)


def test_cli_reports_bad_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_header(255, 255))
    res = CliRunner().invoke(main, ["analyze", "--state", str(path), "--m", "1"])
    assert res.exit_code == 2
    assert "error:" in res.output
