"""Single-file parameter container shared by training and sampling.

Layout:

    GONC1 <manifest_bytes>\n
    <manifest JSON, UTF-8>
    <blob: little-endian float64, parameters concatenated in manifest order>

The manifest lists every parameter's name, shape, and byte offset into the
blob, plus an optional metadata object. Round trips are bit-exact and the
bytes are a pure function of (params, meta): no timestamps, sorted JSON keys.
A save hands the header, the manifest and each array in turn to
`gridonet.write` and returns the sha256 it took as it wrote, so no caller
reads the file back to hash it. A load reads the blob once, into one array;
the params are views of it.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import Error, write

__all__ = ["MAGIC", "CheckpointError", "flatten", "unflatten", "save_checkpoint",
           "load_checkpoint"]

MAGIC = "GONC1"


class CheckpointError(Error):
    """The file is not a whole checkpoint: bad header, manifest or blob."""


def flatten(params: dict) -> tuple[list[tuple[str, tuple[int, ...]]], np.ndarray]:
    """Concatenate parameters into one vector; layout is insertion order."""
    layout = []
    chunks = []
    for name, arr in params.items():
        a = np.asarray(arr, dtype=np.float64)
        layout.append((name, a.shape))
        chunks.append(a.ravel())
    return layout, (np.concatenate(chunks) if chunks else np.zeros(0))


def unflatten(layout, vector: np.ndarray, copy: bool = True) -> dict[str, np.ndarray]:
    """The parameters of a flat vector by layout: copies, or with `copy`
    False views that follow every later write to the vector."""
    out = {}
    pos = 0
    for name, shape in layout:
        n = math.prod(shape)
        a = np.asarray(vector[pos : pos + n], dtype=np.float64).reshape(shape)
        out[name] = a.copy() if copy else a
        pos += n
    if pos != vector.size:
        raise ValueError(f"layout covers {pos} values but vector has {vector.size}")
    return out


def save_checkpoint(path, params: dict, meta: dict | None = None) -> str:
    """Write params and meta to path and return the sha256 of the bytes
    written. Each array is written in turn, with no concatenated copy; a
    failed write is a `gridonet.Error` naming the file."""
    arrays = [np.asarray(a, dtype=np.float64) for a in params.values()]
    entries, offset = [], 0
    for name, a in zip(params, arrays):
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        offset += 8 * a.size
    manifest = {"params": entries, "meta": meta or {}}
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return write(path, (f"{MAGIC} {len(mbytes)}\n".encode(), mbytes,
                        *(np.ascontiguousarray(a, dtype="<f8") for a in arrays)))


def _shape(dims) -> tuple[int, ...]:
    if not isinstance(dims, list) or any(type(d) is not int or d < 0 for d in dims):
        raise ValueError(f"shape {dims!r} is not a list of non-negative ints")
    return tuple(dims)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        line = f.readline(64)
        header = line.split() if line.endswith(b"\n") else []
        if len(header) != 2 or header[0] != MAGIC.encode() or not header[1].isdigit():
            raise CheckpointError(f"{path}: not a checkpoint file: bad header {line[:16]!r}")
        try:
            manifest = json.loads(f.read(int(header[1])))
            entries = [(e["name"], _shape(e["shape"]), e["offset"]) for e in manifest["params"]]
            meta = manifest.get("meta", {})
            if not isinstance(meta, dict):
                raise TypeError(f"meta is a {type(meta).__name__}, not an object")
        except (ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: bad or truncated manifest: {e}") from None
        size = os.fstat(f.fileno()).st_size - f.tell()
        blob = np.empty(size // 8, "<f8")
        f.readinto(blob)
    params = {}
    for name, shape, offset in entries:
        n = math.prod(shape)
        if not isinstance(offset, int) or offset < 0 or offset % 8:
            raise CheckpointError(f"{path}: {name!r} has offset {offset!r}, not a multiple of 8")
        if offset + 8 * n > size:
            raise CheckpointError(f"{path}: truncated: {name!r} ends at blob byte "
                                  f"{offset + 8 * n}, the blob has {size}")
        params[name] = blob[offset // 8 : offset // 8 + n].reshape(shape)
    return params, meta
