"""Versioned binary checkpoint files.

Layout: magic "SALAB1", then per parameter
    uint32 name length, utf-8 name bytes,
    uint32 rank, uint32 dims...,
    little-endian float32 payload (row-major).

Saves are atomic: a failed or interrupted save leaves the earlier file whole.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .exceptions import CheckpointError

MAGIC = b"SALAB1"


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    """Write `<path>.tmp` and rename it onto `path`; a failed save removes it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for name, arr in params.items():
                arr = np.ascontiguousarray(arr, dtype="<f4")
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read every parameter; a foreign or truncated file, one naming a
    parameter twice, or one holding a NaN or an infinite weight raises
    CheckpointError naming the file and the parameter."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a SALAB1 checkpoint")
    off = len(MAGIC)
    params: dict[str, np.ndarray] = {}
    while off < len(data):
        start = off
        try:
            (nlen,) = struct.unpack_from("<I", data, off)
            off += 4
            name = data[off : off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", data, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}I", data, off)
            off += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(data, dtype="<f4", count=count, offset=off).reshape(dims)
        except (struct.error, ValueError) as e:
            raise CheckpointError(
                f"{path}: truncated or corrupt parameter record at byte {start}: {e}"
            ) from e
        if name in params:
            raise CheckpointError(f"{path}: parameter {name!r} at byte {start} repeats an earlier record")
        off += 4 * count
        # a float64 sum of float32 entries cannot overflow: it is finite exactly when they all are
        if not math.isfinite(arr.sum(dtype=np.float64)):
            raise CheckpointError(f"{path}: parameter {name!r} holds a NaN or infinite weight")
        params[name] = arr.astype(np.float32)  # a copy, not a view of `data`
    return params
