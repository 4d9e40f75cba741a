"""The one codec of every binary file in this package.

Every file is the same container: an 8-byte magic, a u32 record count, then
that many records, each a UTF-8 name and one `write_array` array (dtype tag,
rank and dims, then the C-order payload). Only this module knows that layout.
A format is its magic and its record names, written by `save_records` and
read by `load_records`; a `str` value is stored as the `u1` array of its
UTF-8 bytes, and `text` decodes it. The magic is the format's version:

- `ACEGSCN2`: a rendered scene tuple (`synthworld.save_scene_tuple`);
- `ACEGBUF2`: a pre-training (`pretrain-v4`) or novel-scene (`novel-v3`)
  patch buffer (`buffers.save_buffer`);
- `ACEGPRM5`: a pre-training run state's numbers, beside a JSON of its config,
  tuple ids and generator states (`pretrain.PretrainRun.save_state`);
- `ACEGMAP4`: a scene's map code (`regressor.save_map_code`).

All multi-byte fields are little-endian, and arrays round-trip bit-exactly.
A truncated or corrupt file, another magic or a repeated record name raises
`FormatError`. Each name and array is sized against the bytes left before it
is read or allocated, so no read allocates more than the file holds.

Every loader checks the records it read in one call, `check_records(records,
layout)`, against a table of rows `(name, dtype, shape, lo, hi)`: the array
has exactly that dtype and shape, where a shape entry is an int or a dim
name that every record using it must agree on; every float is finite; and
where `lo` or `hi` is not None, every value lies in [lo, hi]. What a table
cannot state (box extents, counts that sum to a dim, indices below another
record's length, poses) the loader checks after it. A buffer's constructor
makes both checks, so `.buf` is checked where any buffer is made.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO

import numpy as np


class FormatError(ValueError):
    """Malformed, corrupt or truncated binary file."""


_DTYPE_TAGS = {
    b"f4": np.dtype("<f4"),
    b"f8": np.dtype("<f8"),
    b"u1": np.dtype("<u1"),
    b"u4": np.dtype("<u4"),
    b"i8": np.dtype("<i8"),
}
_TAG_BY_KIND = {d: t for t, d in _DTYPE_TAGS.items()}
MAX_RANK = 8
_ARRAY_HEADERS = [struct.Struct(f"<2sI{rank}I") for rank in range(MAX_RANK + 1)]
_TAG_RANK = _ARRAY_HEADERS[0]
_DIMS = [struct.Struct(f"<{rank}I") for rank in range(MAX_RANK + 1)]
_U32 = struct.Struct("<I")


class Reader:
    """A binary file being read, and the number of bytes it has left.

    The size is learned once, when the reader is made, so bounding a record
    costs no seek."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        start = fh.tell()
        self.left = fh.seek(0, 2) - start
        fh.seek(start)

    def take(self, n: int, what: str) -> bytes:
        """The next `n` bytes; FormatError if the file has fewer."""
        raw = self.fh.read(n) if n <= self.left else b""
        if len(raw) != n:
            raise FormatError(f"truncated {what}: {n} bytes needed, {self.left} left")
        self.left -= n
        return raw


def _read_u32(fh: Reader) -> int:
    return _U32.unpack(fh.take(4, "u32"))[0]


def _read_str(fh: Reader) -> str:
    raw = fh.take(_read_u32(fh), "string")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"string is not UTF-8: {exc}") from exc


def write_array(fh: BinaryIO, arr: np.ndarray) -> None:
    """Write dtype tag, rank and dims in one header, then the raw C-order payload."""
    arr = np.asarray(arr)
    dtype = arr.dtype.newbyteorder("<")
    tag = _TAG_BY_KIND.get(dtype)
    if tag is None:
        raise FormatError(f"unsupported array dtype {arr.dtype}")
    if arr.ndim > MAX_RANK:
        raise FormatError(f"array of rank {arr.ndim}, at most {MAX_RANK} supported")
    fh.write(_ARRAY_HEADERS[arr.ndim].pack(tag, arr.ndim, *arr.shape))
    # np.ascontiguousarray would make a 0-d array 1-d
    fh.write(np.asarray(arr, dtype=dtype, order="C"))


def read_array(fh: Reader) -> np.ndarray:
    """A fresh, writeable array that owns its data, read straight into place."""
    tag, rank = _TAG_RANK.unpack(fh.take(_TAG_RANK.size, "array header"))
    dtype = _DTYPE_TAGS.get(tag)
    if dtype is None:
        raise FormatError(f"unknown dtype tag {tag!r}")
    if rank > MAX_RANK:
        raise FormatError(f"array rank {rank}, at most {MAX_RANK} supported")
    shape = _DIMS[rank].unpack(fh.take(4 * rank, "array dims"))
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > fh.left:
        raise FormatError(f"truncated array payload: {shape} {dtype} needs {nbytes} bytes, "
                          f"{fh.left} left")
    try:
        arr = np.empty(shape, dtype)
    except ValueError as exc:  # a zero-size shape whose other dims overflow
        raise FormatError(f"array dims {shape}: {exc}") from exc
    if nbytes and fh.fh.readinto(memoryview(arr).cast("B")) != nbytes:
        raise FormatError("truncated array payload")
    fh.left -= nbytes
    return arr


def save_records(path, magic: bytes, records: dict) -> None:
    """Write `records` (name -> array, or str as its UTF-8 bytes) in their order,
    after `magic` (8 bytes) and their count."""
    assert len(magic) == 8
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(_U32.pack(len(records)))
        for name, value in records.items():
            raw = name.encode("utf-8")
            fh.write(_U32.pack(len(raw)) + raw)
            if isinstance(value, str):
                value = np.frombuffer(value.encode("utf-8"), np.uint8)
            write_array(fh, value)


def load_records(path, magic: bytes) -> dict[str, np.ndarray]:
    """The records of a file written by `save_records` under `magic`, in file order;
    FormatError on another magic, a repeated name, or a truncated or corrupt file."""
    with open(path, "rb") as raw:
        fh = Reader(raw)
        got = fh.take(min(8, fh.left), "magic")
        if got != magic:
            raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")
        records: dict[str, np.ndarray] = {}
        for _ in range(_read_u32(fh)):
            name = _read_str(fh)
            if name in records:
                raise FormatError(f"record {name!r} is repeated")
            records[name] = read_array(fh)
    return records


def text(records: dict[str, np.ndarray], name: str) -> str:
    """The text that `save_records` wrote as the record `name`; FormatError naming
    the record if it is missing, not a u1 vector, or not UTF-8."""
    arr = records.get(name)
    if arr is None or arr.dtype != np.uint8 or arr.ndim != 1:
        got = "missing" if arr is None else f"{arr.dtype} {arr.shape}, expected uint8 text"
        raise FormatError(f"record {name!r} is {got}")
    try:
        return arr.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"record {name!r} is not UTF-8: {exc}") from exc


def check_records(arrays: dict[str, np.ndarray], layout) -> dict[str, int]:
    """The dims that `layout` names, bound by `arrays`; FormatError naming the first
    record of `layout` that is missing, of another dtype or shape, non-finite or
    out of its [lo, hi]. A shape mismatch also names the record that bound each of
    its dims, if another did. Records that `layout` does not name are ignored."""
    dims: dict[str, int] = {}
    binder: dict[str, str] = {}  # the record that bound each dim
    for name, dtype, shape, lo, hi in layout:
        arr = arrays.get(name)
        if arr is None:
            raise FormatError(f"record {name!r} is missing")
        if arr.ndim == len(shape):
            for d, n in zip(shape, arr.shape):
                if isinstance(d, str) and d not in dims:
                    dims[d], binder[d] = n, name
        want = tuple(dims.get(d, d) for d in shape)
        if arr.dtype != dtype or arr.shape != want:
            bound = ", ".join(f"{d} = {dims[d]} from {binder[d]!r}" for d in shape
                              if binder.get(d, name) != name)
            raise FormatError(f"record {name!r} is {arr.dtype} {arr.shape}, "
                              f"expected {np.dtype(dtype)} {want}"
                              + (f" ({bound})" if bound else ""))
        # min and max propagate NaN, so a float bounded both ways needs no isfinite pass
        if arr.dtype.kind == "f" and (lo is None or hi is None) and not np.isfinite(arr).all():
            raise FormatError(f"record {name!r} holds non-finite values")
        if arr.size and not ((lo is None or lo <= arr.min()) and (hi is None or arr.max() <= hi)):
            raise FormatError(f"record {name!r} holds values outside "
                              f"[{'-inf' if lo is None else lo}, {'inf' if hi is None else hi}]")
    return dims
