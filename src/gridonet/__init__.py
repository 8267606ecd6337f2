"""Operator networks with uncertainty quantification for post-fault grid dynamics."""

import os

# BLAS on one thread, unless the user set a count: this must run before
# anything imports numpy. The package runs its own threads (see `deeponet`
# and `sghmc`) and forks one child per `simulate` (see `gridsim`), and a
# matmul's bits follow the BLAS thread count. A caller that imports numpy
# first keeps BLAS's default count (numpy has no setter), so its
# default-geometry bytes may differ from the CLI's.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

import hashlib

__version__ = "0.1.0"


class Error(Exception):
    """The base of every error the package raises on purpose; the CLI prints one as one line."""


def write(path, chunks) -> str:
    """Write the byte chunks to `path` (every output goes through here) and
    return their sha256; an OSError becomes an Error naming the file, caused by it."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as f:
            for chunk in chunks:
                digest.update(chunk)
                f.write(chunk)
    except OSError as e:
        raise Error(f"cannot write {path}: {e.strerror}") from e
    return digest.hexdigest()
