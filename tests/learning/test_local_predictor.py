"""Tests for the manifold regulariser (Eqs. 9–14, 17, Lemma 1)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learning import knn_indices, manifold_matrices

from .oracle import local_laplacian, manifold_matrix_reference


def manifold_matrix(x, k_neighbors, local_reg):
    """One concept's regulariser through the batched production path."""
    return manifold_matrices({"c": x}, k_neighbors, local_reg)["c"]


class TestKnnIndices:
    def test_self_first(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0]])
        neighbours = knn_indices(x, k=2)
        assert list(neighbours[:, 0]) == [0, 1, 2, 3]

    def test_nearest_selected(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0]])
        neighbours = knn_indices(x, k=1)
        assert neighbours[0, 1] == 1
        assert neighbours[3, 1] == 2

    def test_k_capped_by_n(self):
        x = np.zeros((3, 2))
        neighbours = knn_indices(x, k=10)
        assert neighbours.shape == (3, 3)

    def test_empty_rejected(self):
        with pytest.raises(LearningError):
            knn_indices(np.zeros((0, 2)), k=1)


class TestLocalLaplacian:
    def test_psd(self):
        # Lemma 1 of the paper: L_i is positive semi-definite.
        rng = np.random.default_rng(0)
        for _ in range(10):
            block = rng.normal(size=(6, 3))
            laplacian = local_laplacian(block, local_reg=0.1)
            eigenvalues = np.linalg.eigvalsh(laplacian)
            assert eigenvalues.min() > -1e-9

    def test_symmetric(self):
        block = np.random.default_rng(1).normal(size=(5, 3))
        laplacian = local_laplacian(block, local_reg=0.5)
        assert np.allclose(laplacian, laplacian.T)

    def test_annihilates_constant_vector(self):
        # H 1 = 0, so the all-ones vector is in the null space.
        block = np.random.default_rng(2).normal(size=(5, 3))
        laplacian = local_laplacian(block, local_reg=0.1)
        ones = np.ones(5)
        assert np.allclose(laplacian @ ones, 0.0, atol=1e-9)


class TestManifoldMatrix:
    def test_shape_and_psd(self):
        x = np.random.default_rng(3).normal(size=(30, 5))
        a = manifold_matrix(x, k_neighbors=4, local_reg=0.1)
        assert a.shape == (5, 5)
        eigenvalues = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert eigenvalues.min() > -1e-8

    def test_empty_input(self):
        a = manifold_matrix(np.zeros((0, 4)), k_neighbors=3, local_reg=0.1)
        assert a.shape == (4, 4)
        assert np.allclose(a, 0.0)

    def test_penalises_manifold_violations(self):
        # Points on a line: a weight vector along the line direction gives
        # locally-linear predictions (small penalty); an orthogonal one is
        # penalised no more strongly than the aligned one is close to zero.
        t = np.linspace(0, 1, 20)
        x = np.stack([t, 2 * t], axis=1)
        noise = np.random.default_rng(4).normal(scale=1e-3, size=x.shape)
        a = manifold_matrix(x + noise, k_neighbors=3, local_reg=0.01)
        aligned = np.array([1.0, 2.0]) / np.sqrt(5)
        penalty_aligned = aligned @ a @ aligned
        assert penalty_aligned < np.trace(a)


class TestManifoldMatrices:
    """The batched production path against solo calls and the oracle."""

    @staticmethod
    def _concepts():
        # Neighbourhood blocks of shape (6, 5) for a and b, (4, 5) for c
        # (fewer rows than k + 1) and (6, 3) for d; e is empty.
        rng = np.random.default_rng(5)
        return {
            "a": rng.normal(size=(30, 5)),
            "b": rng.normal(size=(20, 5)),
            "c": rng.normal(size=(4, 5)),
            "d": rng.normal(size=(25, 3)),
            "e": np.zeros((0, 5)),
        }

    def test_batched_call_is_bit_identical_to_solo_calls(self):
        xs = self._concepts()
        batched = manifold_matrices(xs, k_neighbors=5, local_reg=0.1)
        assert set(batched) == set(xs)
        for name, x in xs.items():
            solo = manifold_matrices({name: x}, k_neighbors=5, local_reg=0.1)
            assert batched[name].tobytes() == solo[name].tobytes(), name

    def test_matches_the_per_neighbourhood_oracle(self):
        xs = self._concepts()
        batched = manifold_matrices(xs, k_neighbors=5, local_reg=0.1)
        for name, x in xs.items():
            reference = manifold_matrix_reference(x, 5, 0.1)
            assert batched[name].shape == reference.shape
            assert np.abs(batched[name] - reference).max(initial=0.0) <= 1e-10


class TestManifoldMemory:
    """A call's memory peaks at its largest concept, not at their sum."""

    @staticmethod
    def _peak(xs) -> int:
        tracemalloc.start()
        try:
            manifold_matrices(xs, k_neighbors=5, local_reg=0.1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_that_of_the_largest_concept(self):
        rng = np.random.default_rng(9)
        # 25 concepts whose neighbourhood blocks all share one shape, of
        # 40 to 280 instances.  Stacking them took 9× the largest's peak.
        xs = {
            f"c{i}": rng.normal(size=(n, 8))
            for i, n in enumerate(range(40, 281, 10))
        }
        largest = max(xs.values(), key=len)
        solo = self._peak({"largest": largest})
        many = self._peak(xs)
        # The 25 returned 8 × 8 matrices are the only growth allowed.
        assert many <= 1.25 * solo + len(xs) * 1024, (many, solo)
