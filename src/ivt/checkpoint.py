"""Binary checkpoint format for named parameter tensors.

Layout: magic bytes b"IVTC", version u16 LE, then one record per
parameter in insertion order: name length (u32 LE), UTF-8 name,
shape rank (u32 LE), dims (u64 LE each), row-major f64 LE payload.
Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"IVTC"
VERSION = 1


def save_params(path, params: dict[str, Tensor]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        for name, t in params.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", t.ndim))
            for d in t.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(t.data.astype("<f8", copy=False).tobytes())


def load_params(path) -> dict[str, Tensor]:
    """Named tensors in file order; a file cut between records gives the leading
    ones. A damaged file, or one that names a parameter twice, raises
    ``ValueError`` naming the path and byte offset."""
    raw = memoryview(Path(path).read_bytes())
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(raw) - pos:
            raise ValueError(f"{path}: byte {pos}: need {n} bytes, {len(raw) - pos} left")
        pos += n
        return raw[pos - n:pos]

    if bytes(take(4)) != MAGIC:
        raise ValueError(f"{path}: bad magic {bytes(raw[:4])!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<H", take(2))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    params: dict[str, Tensor] = {}
    while pos < len(raw):
        start = pos
        (nlen,) = struct.unpack("<I", take(4))
        try:
            name = str(take(nlen), "utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: byte {pos - nlen}: name is not UTF-8") from None
        if name in params:
            raise ValueError(f"{path}: byte {start}: parameter {name!r} is repeated")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        data = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8").reshape(dims)
        params[name] = Tensor(data.copy(), requires_grad=True)
    return params
