"""Binary state-vector file format.

Layout (little-endian, 16-byte header, then raw amplitudes):

    offset  size  field
    0       8     magic b"POLYAME\\0"
    8       1     format version (1)
    9       1     n  (number of sites)
    10      1     d  (local dimension)
    11      1     encoding: 1 = int8 signed integers (state = ints / norm),
                            2 = float64 raw amplitudes
    12      4     reserved (zero)
    16      -     d^n values: int8 or little-endian float64 per encoding

The int8 encoding stores the amplitudes as the smallest integer vector
proportional to the state; decoding divides by the integer vector's norm.
It is used only where that decoding gives back the amplitudes bit for bit
(flat sign states and uniform code-state supports built the same way).
float64 is a verbatim dump. Either way a round trip is bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadStateFile
from .states import DENSE_BUDGET, StateVector

MAGIC = b"POLYAME\x00"
VERSION = 1
ENC_INT8 = 1
ENC_FLOAT64 = 2
DTYPES = {ENC_INT8: np.dtype(np.int8), ENC_FLOAT64: np.dtype("<f8")}
# Amplitudes per step of the int8 trial.
INT8_CHUNK = 1 << 16


def _decode_int8(ints: np.ndarray) -> np.ndarray:
    arr = ints.astype(np.float64)
    arr /= np.linalg.norm(arr)
    return arr


def _as_int8_multiple(amps: np.ndarray):
    """Smallest int8 vector proportional to amps whose decoding gives back
    amps bit for bit, or None. Works on INT8_CHUNK amplitudes at a time, with
    no full-size float temporary, and stops at the first chunk that does not
    decode. The integer vector's squared norm is summed exactly (its partial
    sums stay far below 2^53), so the norm is `_decode_int8`'s."""
    chunks = [amps[i : i + INT8_CHUNK] for i in range(0, amps.size, INT8_CHUNK)]
    scale = min(np.min(np.abs(c), where=c != 0, initial=np.inf) for c in chunks)
    if scale == np.inf:
        return None
    ints = np.empty(amps.size, dtype=np.int8)
    int_chunks = [ints[i : i + INT8_CHUNK] for i in range(0, amps.size, INT8_CHUNK)]
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


def write_state(path, sv: StateVector) -> str:
    """Write a state, as int8 where that decodes bit for bit, else as
    float64; returns the encoding used ('int8' or 'float64')."""
    ints = _as_int8_multiple(sv.amps)
    with open(path, "wb") as fh:
        enc = ENC_INT8 if ints is not None else ENC_FLOAT64
        fh.write(MAGIC)
        fh.write(struct.pack("<BBBB4x", VERSION, sv.n, sv.d, enc))
        fh.write(ints if ints is not None else np.ascontiguousarray(sv.amps, dtype="<f8"))
    return "int8" if ints is not None else "float64"


def read_state(path) -> StateVector:
    """Read a state file. The header is validated before the payload
    buffer is allocated, so a malformed file raises BadStateFile."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise BadStateFile(f"bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise BadStateFile("truncated header")
        version, n, d, enc = struct.unpack("<BBBB4x", header)
        if version != VERSION:
            raise BadStateFile(f"unsupported version {version}")
        if n < 1 or d < 2:
            raise BadStateFile(f"header has n = {n}, d = {d}; need n >= 1, d >= 2")
        count = d**n
        if count > DENSE_BUDGET:
            raise BadStateFile(f"d^n = {d}^{n} amplitudes exceeds budget {DENSE_BUDGET}")
        if enc not in DTYPES:
            raise BadStateFile(f"unknown encoding {enc}")
        arr = np.empty(count, dtype=DTYPES[enc])
        if fh.readinto(arr) != arr.nbytes or fh.read(1):
            raise BadStateFile(f"payload is not exactly {arr.nbytes} bytes")
    if enc == ENC_INT8:
        if not arr.any():
            raise BadStateFile("int8 payload is all zero, which has no norm to divide by")
        arr = _decode_int8(arr)
    else:
        arr = arr.astype(np.float64, copy=False)
    return StateVector(int(n), int(d), arr)
