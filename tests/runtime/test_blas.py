"""``one_blas_thread`` pins scipy's OpenBLAS to one thread and restores it."""

from __future__ import annotations

import pytest

from repro.runtime.blas import _scipy_openblas, one_blas_thread


@pytest.fixture
def pool():
    found = _scipy_openblas()
    if found is None:
        pytest.skip("scipy links a BLAS other than its bundled OpenBLAS")
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
