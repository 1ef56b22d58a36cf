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

`write_state` always writes float64, so a round trip gives back every
amplitude byte for byte, -0.0 and NaN included. Encoding 1, the state as an
integer vector decoded as ints / norm, came from earlier versions; files
written with it still load.
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


def _decode_int8(ints: np.ndarray) -> np.ndarray:
    arr = ints.astype(np.float64)
    arr /= np.linalg.norm(arr)
    return arr


def write_state(path, sv: StateVector) -> str:
    """Write a state as raw float64; returns the encoding, 'float64'."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BBBB4x", VERSION, sv.n, sv.d, ENC_FLOAT64))
        fh.write(np.ascontiguousarray(sv.amps, dtype="<f8"))
    return "float64"


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
