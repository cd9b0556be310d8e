"""OpenBLAS thread-count helpers shared by the BLAS pin tests.

Imported by name (``from blas_pin import ...``); the name is unique so
that it cannot resolve to a helper module of another test directory
collected in the same pytest run.
"""

import contextlib

from nclil.operators import _openblas


def blas_threads():
    return [get() for get, _ in _openblas()]


@contextlib.contextmanager
def caller_blas_threads(n):
    """Run the body with every loaded OpenBLAS set to n threads."""
    before = blas_threads()
    for _, put in _openblas():
        put(n)
    try:
        yield
    finally:
        for (_, put), threads in zip(_openblas(), before):
            put(threads)
