"""The one codec of every binary file format in this package.

Each format is a fixed 8-byte magic followed by length-prefixed records:

- `ACEGSCN1`: a rendered scene tuple (`synthworld.save_scene_tuple`);
- `ACEGBUF1`: a pre-training or novel-scene patch buffer (`buffers.save_buffer`);
- `ACEGPRM2`: a checkpoint of named arrays (`autodiff.save_params`);
- `ACEGMAP2`: a scene's map code (`regressor.save_map_code`).

All multi-byte fields are little-endian; array payloads are written in C
order with an explicit dtype tag so round-trips are bit-exact. Every reader
raises `FormatError` on a truncated file. Only this module packs bytes.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np


class FormatError(ValueError):
    """Malformed or truncated binary file."""


_DTYPE_TAGS = {
    "f4": np.dtype("<f4"),
    "f8": np.dtype("<f8"),
    "u1": np.dtype("<u1"),
    "u4": np.dtype("<u4"),
    "i8": np.dtype("<i8"),
}
_TAG_BY_KIND = {np.dtype(d): t for t, d in _DTYPE_TAGS.items()}


def write_magic(fh: BinaryIO, magic: bytes) -> None:
    assert len(magic) == 8
    fh.write(magic)


def read_magic(fh: BinaryIO, expected: bytes) -> None:
    got = fh.read(8)
    if got != expected:
        raise FormatError(f"bad magic: expected {expected!r}, got {got!r}")


def write_u8(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<B", value))


def read_u8(fh: BinaryIO) -> int:
    raw = fh.read(1)
    if len(raw) != 1:
        raise FormatError("truncated u8")
    return raw[0]


def write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<I", value))


def read_u32(fh: BinaryIO) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError("truncated u32")
    return struct.unpack("<I", raw)[0]


def write_f64(fh: BinaryIO, value: float) -> None:
    fh.write(struct.pack("<d", value))


def read_f64(fh: BinaryIO) -> float:
    raw = fh.read(8)
    if len(raw) != 8:
        raise FormatError("truncated f64")
    return struct.unpack("<d", raw)[0]


def write_str(fh: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    write_u32(fh, len(data))
    fh.write(data)


def read_str(fh: BinaryIO) -> str:
    n = read_u32(fh)
    raw = fh.read(n)
    if len(raw) != n:
        raise FormatError("truncated string")
    return raw.decode("utf-8")


def write_array(fh: BinaryIO, arr: np.ndarray) -> None:
    """Write dtype tag, rank, dims, then the raw C-order payload."""
    arr = np.asarray(arr, order="C")  # np.ascontiguousarray would make a 0-d array 1-d
    dt = arr.dtype.newbyteorder("<")
    if np.dtype(dt) not in _TAG_BY_KIND:
        raise FormatError(f"unsupported array dtype {arr.dtype}")
    tag = _TAG_BY_KIND[np.dtype(dt)]
    fh.write(tag.encode("ascii"))
    write_u32(fh, arr.ndim)
    for d in arr.shape:
        write_u32(fh, d)
    fh.write(arr.astype(dt, copy=False).tobytes(order="C"))


def read_array(fh: BinaryIO) -> np.ndarray:
    tag = fh.read(2).decode("ascii", errors="replace")
    if tag not in _DTYPE_TAGS:
        raise FormatError(f"unknown dtype tag {tag!r}")
    dtype = _DTYPE_TAGS[tag]
    rank = read_u32(fh)
    shape = tuple(read_u32(fh) for _ in range(rank))
    count = int(np.prod(shape)) if shape else 1
    raw = fh.read(count * dtype.itemsize)
    if len(raw) != count * dtype.itemsize:
        raise FormatError("truncated array payload")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
