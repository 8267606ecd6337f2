"""Loaded before any test module: importing the package first puts BLAS on
one thread, as the CLI runs it, before a test module's numpy import loads
BLAS with its default count."""

import gridonet  # noqa: F401
