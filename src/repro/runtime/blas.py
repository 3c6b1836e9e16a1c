"""BLAS thread policy for results that must not depend on the thread count.

OpenBLAS splits some LAPACK reductions across its threads, so the KPCA
eigendecomposition (``scipy.linalg.eigh``, 600 × 600 at the default
sample size) returns eigenvectors that differ in the last bits between
one thread and two.  An ingest session stores that basis and resumes
from it, so its bytes must be the same whatever ``OPENBLAS_NUM_THREADS``
says (``tests/experiments/test_blas_threads.py``).

:func:`one_blas_thread` runs a block on one thread of scipy's bundled
OpenBLAS and restores the previous count after it.  With BLAS already
on one thread it does nothing.  Where scipy links another BLAS, the
block runs as is.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

__all__ = ["one_blas_thread"]


@functools.cache
def _scipy_openblas() -> tuple | None:
    """The thread-count getter and setter of scipy's OpenBLAS, if found."""
    # Lazy: callers run this after their own first scipy import.
    import scipy

    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            get = getattr(lib, f"{prefix}openblas_get_num_threads", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one scipy OpenBLAS thread (the count is global,
    so this assumes the package runs its passes on one thread)."""
    pool = _scipy_openblas()
    threads = pool[0]() if pool is not None else 1
    if threads == 1:
        yield
        return
    pool[1](1)
    try:
        yield
    finally:
        pool[1](threads)
