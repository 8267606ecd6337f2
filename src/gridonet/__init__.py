"""Operator networks with uncertainty quantification for post-fault grid dynamics."""

import os

# BLAS on one thread, unless the user set a count: this must run before
# anything imports numpy. The package runs its own second thread (see
# `deeponet`) and forks one child per `simulate` (see `gridsim`), and a
# matmul's bits follow the BLAS thread count. A caller that imports numpy
# first keeps BLAS's default count (numpy has no setter), so its
# default-geometry bytes may differ from the CLI's.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"


class Error(Exception):
    """The base of every error the package raises on purpose; the CLI prints one as one line."""
