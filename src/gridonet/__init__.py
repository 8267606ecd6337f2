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

import contextlib
import hashlib
import itertools

__version__ = "0.1.0"


class Error(Exception):
    """The base of every error the package raises on purpose; the CLI prints one as one line."""


_CALLS = itertools.count()  # numbers each write's temporary file within the process


def write(path, chunks) -> str:
    """Write the byte chunks to `path` (every output goes through here) and
    return their sha256. A new or regular file (a symlink's target) is written
    to a temporary file beside it, named for this process and call, which
    replaces it once whole, so a command stopped midway leaves the old file
    intact; on any error the temporary file is removed. Anything else, such as
    a device (`predict --out /dev/stdout`), is written in place, since
    replacing it would remove it. An OSError becomes an Error naming `path`,
    caused by it."""
    digest = hashlib.sha256()
    target = os.path.realpath(path)
    whole = os.path.isfile(target) or not os.path.lexists(target)
    tmp = f"{target}.{os.getpid()}-{next(_CALLS)}.tmp" if whole else target
    try:
        try:
            with open(tmp, "wb") as f:
                for chunk in chunks:
                    digest.update(chunk)
                    f.write(chunk)
            if whole:
                os.replace(tmp, target)
        except BaseException:
            if whole:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise
    except OSError as e:
        raise Error(f"cannot write {path}: {e.strerror}") from e
    return digest.hexdigest()
