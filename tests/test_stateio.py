"""Binary state file round-trips and header validation."""

import struct

import numpy as np
import pytest
from click.testing import CliRunner

from polyame.cli import main
from polyame.contraction import build_d1, build_d2, build_hovering
from polyame.errors import BadStateFile, PolyameError
from polyame.stateio import MAGIC, read_state, write_state
from polyame.states import CATALOG, StateVector, ame52_table1, ghz, normalized


def test_float64_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    sv = normalized(3, 2, rng.normal(size=8))
    path = tmp_path / "s.bin"
    assert write_state(path, sv) == "float64"
    back = read_state(path)
    assert np.array_equal(back.amps, sv.amps)


def test_forced_encodings(tmp_path):
    path = tmp_path / "s.bin"
    bad = normalized(1, 2, [3.0, 4.0])
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
    sv = build_d1()
    path = tmp_path / "d1.bin"
    assert write_state(path, sv) == "float64"
    assert np.array_equal(read_state(path).amps, sv.amps)


def _ghz2_negative_zero():
    amps = ghz(2).amps.copy()
    amps[1] = -0.0
    return StateVector(2, 2, amps)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "make",
    [build_d1, build_d2, build_hovering, *CATALOG.values(), _ghz2_negative_zero],
    ids=["d1", "d2", "hovering", *CATALOG, "ghz2-negative-zero"],
)
def test_round_trip_is_byte_exact(tmp_path, make):
    """Every state is written as float64 and read back byte for byte: d2's
    516,096 amplitudes of -0.0 stay -0.0."""
    sv = make()
    path = tmp_path / "s.bin"
    assert write_state(path, sv) == "float64"
    assert read_state(path).amps.tobytes() == sv.amps.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "at, value",
    [(0, np.nan), (5, np.nan), (70_000, np.nan), (0, np.inf), (70_000, -np.inf)],
)
def test_non_finite_amplitudes_write_float64(tmp_path, at, value):
    """Non-finite amplitudes, near the start or far into the vector, are
    written verbatim and read back byte for byte, with no warning."""
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


def test_legacy_int8_file_reads(tmp_path):
    """Files written as int8 signed integers still decode to the state."""
    sv = ame52_table1()
    path = tmp_path / "s.bin"
    path.write_bytes(_header(5, 2, enc=1) + np.sign(sv.amps).astype(np.int8).tobytes())
    back = read_state(path)
    assert (back.n, back.d) == (5, 2)
    assert np.array_equal(back.amps, sv.amps)


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
