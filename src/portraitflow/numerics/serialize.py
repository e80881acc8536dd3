"""Binary tensor encoding shared by dataset files and checkpoints.

Payload layout (all little-endian):
    u32 ndim, then ndim x u64 extents, then the float32 data row-major.
Standalone files carry the magic b"PFT1" in front of one payload and
nothing after it; a checkpoint stores one payload per tensor, each after
its name. `read_payload` checks every length against the bytes left in
the file before reading and fails with EOFError, never a runaway
allocation; the checkpoint reader reads its own fixed-size fields
through the same `_read_exact`.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

TENSOR_FILE_MAGIC = b"PFT1"


def write_payload(fh: BinaryIO, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=np.float32)
    fh.write(struct.pack("<I", array.ndim))
    for extent in array.shape:
        fh.write(struct.pack("<Q", extent))
    fh.write(array.astype("<f4", copy=False).tobytes(order="C"))


def read_payload(fh: BinaryIO) -> np.ndarray:
    end = _file_end(fh)
    ndim = struct.unpack("<I", _read_exact(fh, 4, end))[0]
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, end))
    count = math.prod(shape)  # Python ints: no overflow on corrupt extents
    raw = _read_exact(fh, 4 * count, end)
    return np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)


def save_tensor(path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(TENSOR_FILE_MAGIC)
        write_payload(fh, array)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TENSOR_FILE_MAGIC:
            raise ValueError(f"{Path(path).name}: not a tensor file (magic {magic!r})")
        array = read_payload(fh)
        left = _file_end(fh) - fh.tell()
        if left:
            raise ValueError(f"{Path(path).name}: {left} bytes after the tensor payload")
    return array


def _file_end(fh: BinaryIO) -> int:
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end


def _read_exact(fh: BinaryIO, count: int, end: int) -> bytes:
    """Read `count` bytes, first checking them against the bytes left
    before `end`, so a corrupt length in the file never allocates."""
    left = end - fh.tell()
    if count > left:
        raise EOFError(f"truncated file: wanted {count} bytes, {max(left, 0)} left")
    return fh.read(count)

