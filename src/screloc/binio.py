"""The one codec of every binary file format in this package.

Each format is a fixed 8-byte magic followed by length-prefixed records:

- `ACEGSCN1`: a rendered scene tuple, version 3: after the scene header, one
  array per view field and one per observation field, whatever the number
  of views (`synthworld.save_scene_tuple`);
- `ACEGBUF1`: a pre-training (`pretrain-v4`) or novel-scene (`novel-v3`) patch
  buffer: schema and scene id, then the arrays of its class's `LAYOUT`, whose
  dims are the only counts (`buffers.save_buffer`);
- `ACEGPRM2`: a checkpoint of named arrays (`autodiff.save_params`); a
  pre-training run state keeps every number in one, the pool table included
  (each slot's augmentation centre is not stored: it is recomputed from the
  slot's tuple), beside a JSON of its config, tuple ids and generator states
  (`pretrain.PretrainRun.save_state`);
- `ACEGMAP3`: a scene's map code, its scene id and tokens
  (`regressor.save_map_code`).

All multi-byte fields are little-endian; array payloads are written in C
order with an explicit dtype tag so round-trips are bit-exact. Writers take
any binary file object; readers take a `Reader` (`open_reader(path)`), which
knows how many bytes the file has left. Every reader raises `FormatError` on
a truncated or corrupt file, and sizes each string and array against the
bytes left before it reads or allocates, so no reader allocates more than
the file holds. Only this module packs bytes.

Every loader checks the arrays it read in one call, `check_records(arrays,
layout)`, against a table of rows `(name, dtype, shape, lo, hi)`: the array
has exactly that dtype and shape, where a shape entry is an int or a dim
name that every record using it must agree on; every float is finite; and
where `lo` or `hi` is not None, every value lies in [lo, hi]. What a table
cannot state (box extents, counts that sum to a dim, indices below another
record's length, poses) the loader checks after it. A buffer's constructor
makes both checks, so `.buf` is checked where any buffer is made.
"""

from __future__ import annotations

import contextlib
import math
import struct
from typing import BinaryIO, Iterator

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
_F64 = struct.Struct("<d")


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


@contextlib.contextmanager
def open_reader(path) -> Iterator[Reader]:
    """`path` opened for reading, as a `Reader`; the file is closed on exit."""
    with open(path, "rb") as fh:
        yield Reader(fh)


def write_magic(fh: BinaryIO, magic: bytes) -> None:
    assert len(magic) == 8
    fh.write(magic)


def read_magic(fh: Reader, expected: bytes) -> None:
    got = fh.take(min(8, fh.left), "magic")
    if got != expected:
        raise FormatError(f"bad magic: expected {expected!r}, got {got!r}")


def write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(_U32.pack(value))


def read_u32(fh: Reader) -> int:
    return _U32.unpack(fh.take(4, "u32"))[0]


def write_f64(fh: BinaryIO, value: float) -> None:
    fh.write(_F64.pack(value))


def read_f64(fh: Reader) -> float:
    return _F64.unpack(fh.take(8, "f64"))[0]


def write_str(fh: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    write_u32(fh, len(data))
    fh.write(data)


def read_str(fh: Reader) -> str:
    raw = fh.take(read_u32(fh), "string")
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


def check_records(arrays: dict[str, np.ndarray], layout) -> dict[str, int]:
    """The dims that `layout` names, bound by `arrays`; FormatError naming the first
    record of `layout` that is missing, of another dtype or shape, non-finite or
    out of its [lo, hi]. Records that `layout` does not name are ignored."""
    dims: dict[str, int] = {}
    for name, dtype, shape, lo, hi in layout:
        arr = arrays.get(name)
        if arr is None:
            raise FormatError(f"record {name!r} is missing")
        if arr.ndim == len(shape):
            dims.update((d, n) for d, n in zip(shape, arr.shape)
                        if isinstance(d, str) and d not in dims)
        want = tuple(dims.get(d, d) for d in shape)
        if arr.dtype != dtype or arr.shape != want:
            raise FormatError(f"record {name!r} is {arr.dtype} {arr.shape}, "
                              f"expected {np.dtype(dtype)} {want}")
        # min and max propagate NaN, so a float bounded both ways needs no isfinite pass
        if arr.dtype.kind == "f" and (lo is None or hi is None) and not np.isfinite(arr).all():
            raise FormatError(f"record {name!r} holds non-finite values")
        if arr.size and not ((lo is None or lo <= arr.min()) and (hi is None or arr.max() <= hi)):
            raise FormatError(f"record {name!r} holds values outside "
                              f"[{'-inf' if lo is None else lo}, {'inf' if hi is None else hi}]")
    return dims
