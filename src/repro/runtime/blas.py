"""BLAS thread policy for results that must not depend on the thread count.

OpenBLAS splits some LAPACK reductions across its threads, so the KPCA
``np.linalg.eigh`` returns eigenvectors that differ in the last bits
between one thread and two.  A session stores that basis, so its bytes
must not depend on ``OPENBLAS_NUM_THREADS``
(``tests/experiments/test_blas_threads.py``).

:func:`one_blas_thread` runs a block on one thread of numpy's bundled
OpenBLAS (``numpy.libs/libscipy_openblas64_*``, the package's only BLAS
runtime) and restores the count after it; on one thread already, or
where numpy links another BLAS, the block runs as is.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["one_blas_thread"]


@functools.cache
def _numpy_openblas() -> tuple | None:
    """The thread-count getter and setter of numpy's OpenBLAS, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one numpy OpenBLAS thread (the count is global,
    so this assumes the package runs its passes on one thread)."""
    pool = _numpy_openblas()
    threads = pool[0]() if pool is not None else 1
    if threads == 1:
        yield
        return
    pool[1](1)
    try:
        yield
    finally:
        pool[1](threads)
