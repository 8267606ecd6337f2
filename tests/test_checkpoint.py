"""Container round trips, manifest layout, byte determinism."""

import hashlib
import json
import os
import stat
import threading

import numpy as np
import pytest

import gridonet
from gridonet.checkpoint import (
    CheckpointError,
    flatten,
    load_checkpoint,
    save_checkpoint,
    unflatten,
)
from gridonet.cli import file_sha256
from gridonet.deeponet import DeepOnetConfig, init


def test_flatten_unflatten_roundtrip():
    rng = np.random.default_rng(0)
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((1, 2))}
    layout, vec = flatten(params)
    assert vec.shape == (14,)
    assert layout == [("a", (3, 4)), ("b", (1, 2))]
    back = unflatten(layout, vec)
    for k in params:
        assert np.array_equal(back[k], params[k])


def test_unflatten_size_mismatch():
    layout, vec = flatten({"a": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        unflatten(layout, np.zeros(5))


def test_container_roundtrip_bit_exact(tmp_path):
    params = init(DeepOnetConfig(m=6, q=4, width=5, depth=2), "vanilla", 7)
    # make values adversarial: denormals, negatives, exact powers of two
    params["tau_o"] = np.array([[np.nextafter(0.0, 1.0)]])
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params, meta={"kind": "vanilla", "seed": 7})
    loaded, meta = load_checkpoint(path)
    assert meta == {"kind": "vanilla", "seed": 7}
    assert list(loaded) == list(params)
    for k in params:
        assert np.array_equal(loaded[k], np.asarray(params[k], dtype=float)), k
        assert loaded[k].dtype == np.float64


def test_manifest_is_readable_json_with_offsets(tmp_path):
    params = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([[1.0, 2.0, 3.0]])}
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    magic, mlen = header.decode().split()
    assert magic == "GONC1"
    manifest = json.loads(rest[: int(mlen)].decode())
    entries = {e["name"]: e for e in manifest["params"]}
    assert entries["w"]["shape"] == [2, 3] and entries["w"]["offset"] == 0
    assert entries["b"]["offset"] == 6 * 8  # w occupies 6 doubles
    blob = rest[int(mlen) :]
    w = np.frombuffer(blob, dtype="<f8", count=6, offset=0)
    assert np.array_equal(w, np.arange(6.0))


def test_save_returns_the_digest_of_the_file_and_views_round_trip(tmp_path):
    """Views into one flat vector, as the chain hands its members over, are
    written without a copy of the whole: the file ends with the vector's
    bytes, reads back bit-exact, and hashes to the digest save returns. A
    non-contiguous array is written in C order."""
    params = init(DeepOnetConfig(m=6, q=4, width=5, depth=2), "vanilla", 5)
    layout, vector = flatten(params)
    views = unflatten(layout, vector, copy=False)
    path = tmp_path / "v.ckpt"
    assert save_checkpoint(path, views, meta={"kind": "vanilla"}) == file_sha256(path)
    assert path.read_bytes().endswith(vector.tobytes())
    loaded, _ = load_checkpoint(path)
    assert list(loaded) == list(views)
    assert all(loaded[k].tobytes() == views[k].tobytes() for k in views)
    t = np.arange(6.0).reshape(2, 3).T
    assert save_checkpoint(path, {"t": t}) == file_sha256(path)
    assert np.array_equal(load_checkpoint(path)[0]["t"], t)


def test_write_returns_the_digest_of_what_it_wrote_and_names_a_file_it_cannot(tmp_path):
    """`write` hashes the chunks as it writes them, taken from a generator
    here, so its digest is that of the file; an OSError is one package error
    that names the path."""
    path = tmp_path / "out.bin"
    chunks = (str(i).encode() * i for i in range(50))
    assert gridonet.write(path, chunks) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_bytes() == b"".join(str(i).encode() * i for i in range(50))
    (tmp_path / "dir").mkdir()
    with pytest.raises(gridonet.Error) as e:
        gridonet.write(tmp_path / "dir", [b"x"])
    assert str(e.value) == f"cannot write {tmp_path / 'dir'}: Is a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.bin"]


def test_a_write_stopped_midway_leaves_the_old_file_and_no_temporary(tmp_path):
    """A chunk source that raises after some bytes are written leaves the old
    file's bytes in place and nothing else beside it, and an interrupt
    propagates as itself; a target in a missing directory leaves nothing."""
    path = tmp_path / "out.bin"
    gridonet.write(path, [b"old bytes"])

    def chunks(error):
        yield b"new " * 1000
        raise error

    for error in (ValueError("no more chunks"), KeyboardInterrupt()):
        with pytest.raises(type(error)):
            gridonet.write(path, chunks(error))
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    with pytest.raises(gridonet.Error, match="^cannot write .*: No such file or directory$"):
        gridonet.write(tmp_path / "nodir" / "out.bin", [b"x"])
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_a_symlink_keeps_its_target_and_a_fifo_is_written_in_place(tmp_path):
    """A symlinked output stays a link to the file that gets the new bytes;
    a pipe (as `predict --out /dev/stdout` may name) is written through,
    not replaced by a regular file."""
    (tmp_path / "file").write_bytes(b"old")
    (tmp_path / "link").symlink_to("file")
    gridonet.write(tmp_path / "link", [b"new"])
    assert (tmp_path / "link").is_symlink() and (tmp_path / "file").read_bytes() == b"new"
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    gridonet.write(fifo, [b"through ", b"the pipe"])
    reader.join(timeout=10.0)
    assert got == [b"through the pipe"] and stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "file", "link"]


def test_bytes_deterministic(tmp_path):
    params = init(DeepOnetConfig(m=6, q=4, width=5, depth=2), "vanilla", 3)

    def digest(p):
        save_checkpoint(p, params, meta={"note": "x"})
        return hashlib.sha256(p.read_bytes()).hexdigest()

    assert digest(tmp_path / "a.ckpt") == digest(tmp_path / "b.ckpt")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE 2\n{}")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:5],  # header without its newline
    lambda raw: raw.replace(b" ", b" x", 1),  # non-numeric manifest length
    lambda raw: raw[: raw.index(b"\n") + 10],  # manifest cut short
    lambda raw: raw[:-1],  # blob one byte short
    lambda raw: raw.replace(b'"meta":{}', b'"meta":[]'),  # meta not an object
    # an offset inside the blob that is not a multiple of 8 (same manifest length)
    lambda raw: raw.replace(b'"offset":0', b'"offset":4').replace(b"[2,3]", b"[1,3]"),
    lambda raw: raw.replace(b'"name":"w"', b'"name":[1]'),  # a name that is not a string
], ids=["header", "length", "manifest", "blob", "meta", "offset", "name"])
def test_corrupt_container_rejected(tmp_path, corrupt):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def with_manifest(raw: bytes, old: bytes, new: bytes) -> bytes:
    """raw with old replaced by new inside the manifest, its length fixed up."""
    header, rest = raw.split(b"\n", 1)
    n = int(header.split()[1])
    manifest = rest[:n].replace(old, new)
    return b"GONC1 %d\n" % len(manifest) + manifest + rest[n:]


@pytest.mark.parametrize("shape", [b'[2,"3"]', b"[-2,3]", b"[true,3]", b"6"],
                         ids=["str", "negative", "bool", "not-a-list"])
def test_bad_shape_rejected(tmp_path, shape):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
    path.write_bytes(with_manifest(path.read_bytes(), b"[2,3]", shape))
    with pytest.raises(CheckpointError, match="not a list of non-negative ints"):
        load_checkpoint(path)


def test_params_are_views_of_one_blob(tmp_path):
    params = init(DeepOnetConfig(m=6, q=4, width=5, depth=2), "vanilla", 1)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    blob = loaded["b_u_w"].base
    assert blob is not None and all(a.base is blob for a in loaded.values())
    assert all(a.flags.c_contiguous and a.flags.aligned for a in loaded.values())
