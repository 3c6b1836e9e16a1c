"""``one_blas_thread`` pins numpy's OpenBLAS to one thread and restores it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.blas import _numpy_openblas, one_blas_thread


@pytest.fixture
def pool():
    found = _numpy_openblas()
    if found is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    get, set_ = found
    before = get()
    yield get, set_
    set_(before)


def test_block_runs_on_one_thread_and_the_count_comes_back(pool):
    get, set_ = pool
    set_(2)
    with one_blas_thread():
        assert get() == 1
    assert get() == 2


def test_count_comes_back_after_an_exception(pool):
    get, set_ = pool
    set_(2)
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("inside")
    assert get() == 2


def test_pinned_eigh_gives_the_one_thread_bytes(pool):
    # At 300 × 300 OpenBLAS's eigh already splits its reductions
    # differently on two threads, in the last bits.
    get, set_ = pool
    rng = np.random.default_rng(0)
    a = rng.normal(size=(300, 300))
    a = a + a.T
    set_(1)
    alone = np.linalg.eigh(a)[1].tobytes()
    set_(2)
    with one_blas_thread():
        pinned = np.linalg.eigh(a)[1].tobytes()
    assert pinned == alone
