"""Binary state file round-trips and header validation."""

import struct

import numpy as np
import pytest
from click.testing import CliRunner

from polyame.cli import main
from polyame.contraction import build_d1, build_d2
from polyame.errors import BadStateFile, PolyameError
from polyame.stateio import MAGIC, read_state, write_state
from polyame.states import StateVector, ame52_table1, ghz, normalized


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
