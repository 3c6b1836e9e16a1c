"""Tests for the RBF kernel oracle and kernel PCA."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import LearningError, NotFittedError
from repro.learning import KernelPCA
from repro.learning.embedding import KPCA_GAMMA

from .oracle import centred_kernel_transform, rbf_kernel


class TestKernels:
    def test_rbf_diagonal_ones(self):
        x = np.random.default_rng(0).normal(size=(10, 4))
        k = rbf_kernel(x, x, gamma=0.5)
        assert np.allclose(np.diag(k), 1.0)

    def test_rbf_symmetric_psd(self):
        x = np.random.default_rng(1).normal(size=(12, 4))
        k = rbf_kernel(x, x, gamma=1.0)
        assert np.allclose(k, k.T)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-9

    def test_rbf_bounded(self):
        x = np.random.default_rng(2).normal(size=(8, 3))
        y = np.random.default_rng(3).normal(size=(5, 3))
        k = rbf_kernel(x, y, gamma=0.2)
        assert np.all(k <= 1.0 + 1e-12)
        assert np.all(k >= 0.0)


class TestKernelPCA:
    def _data(self, n=40, d=4, seed=0):
        return np.random.default_rng(seed).normal(size=(n, d))

    def test_transform_shape(self):
        x = self._data()
        kpca = KernelPCA(n_components=5, gamma=0.5).fit(x)
        z = kpca.transform(x)
        assert z.shape == (40, kpca.n_components)
        assert kpca.n_components <= 5

    def test_components_capped_by_rank(self):
        # Three distinct points give a centred kernel of rank <= 2.
        x = np.array([[0.0, 0], [1, 0], [0, 1]])
        kpca = KernelPCA(n_components=10, gamma=0.5).fit(x)
        assert kpca.n_components <= 2

    def test_training_projections_centred(self):
        x = self._data()
        z = KernelPCA(n_components=4, gamma=0.5).fit(x).transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-8)

    def test_components_uncorrelated(self):
        x = self._data(n=60)
        z = KernelPCA(n_components=4, gamma=0.5).fit(x).transform(x)
        covariance = z.T @ z
        off_diagonal = covariance - np.diag(np.diag(covariance))
        assert np.abs(off_diagonal).max() < 1e-6

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KernelPCA(n_components=3, gamma=0.5).transform(np.zeros((2, 4)))

    def test_too_few_samples(self):
        with pytest.raises(LearningError):
            KernelPCA(n_components=3, gamma=0.5).fit(np.zeros((1, 4)))

    def test_bad_n_components(self):
        with pytest.raises(LearningError):
            KernelPCA(n_components=0, gamma=0.5)

    def test_fit_on_sample_respects_cap(self):
        x = self._data(n=500)
        kpca = KernelPCA.fit_on_sample(
            x, n_components=4, gamma=0.5, sample_size=50, seed=1
        )
        z = kpca.transform(x)
        assert z.shape[0] == 500

    def test_empty_transform(self):
        kpca = KernelPCA(n_components=3, gamma=0.5).fit(self._data())
        z = kpca.transform(np.zeros((0, 4)))
        assert z.shape == (0, kpca.n_components)

    def test_default_gamma_embeds_a_row_the_same_in_any_batch(self):
        # The detector's kernel width, passed explicitly.
        x = self._data(n=50)
        kpca = KernelPCA(n_components=3, gamma=KPCA_GAMMA).fit(x)
        alone = kpca.transform(x[:1])[0]
        # Equal up to the BLAS blocking of the final product.
        for batch in (x[:10], x):
            np.testing.assert_allclose(
                kpca.transform(batch)[0], alone, rtol=0, atol=1e-12
            )

    def test_deterministic(self):
        x = self._data()
        a = KernelPCA(n_components=4, gamma=0.5).fit(x).transform(x)
        b = KernelPCA(n_components=4, gamma=0.5).fit(x).transform(x)
        assert np.allclose(a, b)

    @given(
        arrays(
            float, (12, 4),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_transform_finite_property(self, x):
        x = x + np.random.default_rng(0).normal(scale=1e-3, size=x.shape)
        kpca = KernelPCA(n_components=3, gamma=0.5).fit(x)
        z = kpca.transform(x)
        assert np.all(np.isfinite(z))


class TestTransformMatchesOracle:
    """The two-GEMM transform against the explicitly centred kernel."""

    @staticmethod
    def _relative_error(kpca, rows):
        expected = centred_kernel_transform(kpca, rows)
        got = kpca.transform(rows)
        assert got.shape == expected.shape
        return np.abs(got - expected).max() / np.abs(expected).max()

    def test_kernel_rows_match_the_distance_form(self):
        rng = np.random.default_rng(6)
        sample = rng.normal(size=(50, 4))
        kpca = KernelPCA(n_components=5, gamma=0.7).fit(sample)
        for rows in (sample, rng.normal(size=(20, 4))):
            got = kpca._kernel_rows(rows)
            assert np.all((got >= 0.0) & (got <= 1.0))
            np.testing.assert_allclose(
                got, rbf_kernel(rows, sample, 0.7), rtol=0, atol=1e-14
            )

    @pytest.mark.parametrize("gamma", [2.0, 0.25])
    def test_new_rows_and_the_fit_sample(self, gamma):
        rng = np.random.default_rng(7)
        sample = rng.normal(size=(300, 4))
        kpca = KernelPCA(n_components=15, gamma=gamma).fit(sample)
        for rows in (sample, sample[:1], rng.normal(size=(120, 4))):
            assert self._relative_error(kpca, rows) <= 1e-12

    def test_refit_refreshes_the_derived_constants(self):
        rng = np.random.default_rng(8)
        kpca = KernelPCA(n_components=6, gamma=0.5)
        kpca.fit(rng.normal(size=(80, 4)))
        second = rng.normal(loc=2.0, size=(60, 4))
        kpca.fit(second)
        rows = rng.normal(size=(25, 4))
        assert self._relative_error(kpca, rows) <= 1e-12
        fresh = KernelPCA(n_components=6, gamma=0.5).fit(second)
        assert np.array_equal(kpca.transform(rows), fresh.transform(rows))
