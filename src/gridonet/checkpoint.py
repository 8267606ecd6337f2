"""Single-file parameter container shared by training and sampling.

Layout:

    GONC1 <manifest_bytes>\n
    <manifest JSON, UTF-8>
    <blob: little-endian float64, parameters concatenated in manifest order>

The manifest lists every parameter's name, shape, and byte offset into the
blob, plus an optional metadata object. Round trips are bit-exact and the
bytes are a pure function of (params, meta): no timestamps, sorted JSON keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["MAGIC", "CheckpointError", "flatten", "unflatten", "save_checkpoint",
           "load_checkpoint"]

MAGIC = "GONC1"


class CheckpointError(ValueError):
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


def unflatten(layout, vector: np.ndarray) -> dict[str, np.ndarray]:
    out = {}
    pos = 0
    for name, shape in layout:
        n = int(np.prod(shape, dtype=np.int64))
        out[name] = np.asarray(vector[pos : pos + n], dtype=np.float64).reshape(shape).copy()
        pos += n
    if pos != vector.size:
        raise ValueError(f"layout covers {pos} values but vector has {vector.size}")
    return out


def save_checkpoint(path, params: dict, meta: dict | None = None) -> None:
    entries = []
    offset = 0
    blobs = []
    for name, arr in params.items():
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        raw = a.astype("<f8", copy=False).tobytes()
        blobs.append(raw)
        offset += len(raw)
    manifest = {"params": entries, "meta": meta or {}}
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(f"{MAGIC} {len(mbytes)}\n".encode())
        f.write(mbytes)
        for raw in blobs:
            f.write(raw)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    header = raw[:nl].split() if nl >= 0 else []
    if len(header) != 2 or header[0] != MAGIC.encode() or not header[1].isdigit():
        raise CheckpointError(f"{path}: not a checkpoint file: bad header {raw[:16]!r}")
    start = nl + 1 + int(header[1])
    try:
        manifest = json.loads(raw[nl + 1 : start])
        entries = [(e["name"], tuple(e["shape"]), e["offset"]) for e in manifest["params"]]
        meta = manifest.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError(f"meta is a {type(meta).__name__}, not an object")
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: bad or truncated manifest: {e}") from None
    blob = raw[start:]
    params = {}
    for name, shape, offset in entries:
        n = int(np.prod(shape, dtype=np.int64))
        if offset + 8 * n > len(blob):
            raise CheckpointError(
                f"{path}: truncated: {name!r} ends at blob byte {offset + 8 * n}, "
                f"the blob has {len(blob)}"
            )
        a = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        params[name] = a.astype(np.float64).reshape(shape)
    return params, meta
