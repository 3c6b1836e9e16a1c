"""A fitted embedding survives the trip through plain arrays bit for bit.

Sessions store their detector basis as the arrays
:meth:`FrozenEmbedding.to_arrays` returns and rebuild it with
:meth:`FrozenEmbedding.from_arrays`; the rebuilt basis must embed every
row exactly as the original does, and damaged arrays must be refused.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import LearningError, NotFittedError
from repro.features.matrix import ConceptMatrix
from repro.learning.embedding import FrozenEmbedding
from repro.learning.kpca import KernelPCA


def _embedding() -> FrozenEmbedding:
    rng = np.random.default_rng(5)
    matrices = {
        concept: ConceptMatrix(
            concept=concept,
            instances=tuple(f"{concept}_{i}" for i in range(40)),
            x=rng.uniform(0.0, 3.0, size=(40, 4)),
        )
        for concept in ("a", "b")
    }
    return FrozenEmbedding.fit(matrices, seed=3)


def _through_npz(arrays: dict) -> dict:
    """``arrays`` after an uncompressed ``.npz`` save and load."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as stored:
        return {key: stored[key] for key in stored.files}


class TestRoundTrip:
    def test_rebuilt_basis_transforms_bit_for_bit(self):
        original = _embedding()
        rebuilt = FrozenEmbedding.from_arrays(
            _through_npz(original.to_arrays())
        )
        rows = np.random.default_rng(9).uniform(-1.0, 4.0, size=(33, 4))
        assert np.array_equal(rebuilt.transform(rows),
                              original.transform(rows))
        assert rebuilt.n_components == original.n_components

    def test_arrays_are_float64(self):
        arrays = _embedding().to_arrays()
        assert sorted(arrays) == [
            "alphas", "column_means", "fit_x", "gamma", "mean", "std",
            "total_mean",
        ]
        assert all(np.asarray(a).dtype == np.float64 for a in arrays.values())

    def test_unfitted_kpca_has_no_arrays(self):
        with pytest.raises(NotFittedError):
            KernelPCA(n_components=6, gamma=2.0).to_arrays()


class TestDamagedArrays:
    @pytest.mark.parametrize("name", ["mean", "fit_x", "gamma", "alphas"])
    def test_missing_array(self, name):
        arrays = _embedding().to_arrays()
        del arrays[name]
        with pytest.raises(LearningError, match=name):
            FrozenEmbedding.from_arrays(arrays)

    @pytest.mark.parametrize("name", ["std", "alphas", "total_mean"])
    def test_wrong_dtype(self, name):
        arrays = _embedding().to_arrays()
        arrays[name] = np.asarray(arrays[name]).astype(np.float32)
        with pytest.raises(LearningError, match=name):
            FrozenEmbedding.from_arrays(arrays)

    def test_alphas_for_other_sample_rows(self):
        arrays = _embedding().to_arrays()
        arrays["alphas"] = arrays["alphas"][:-1]
        with pytest.raises(LearningError, match="alphas"):
            FrozenEmbedding.from_arrays(arrays)

    def test_column_means_for_other_sample_rows(self):
        arrays = _embedding().to_arrays()
        arrays["column_means"] = arrays["column_means"][1:]
        with pytest.raises(LearningError, match="column_means"):
            FrozenEmbedding.from_arrays(arrays)

    def test_statistics_for_other_features(self):
        arrays = _embedding().to_arrays()
        arrays["mean"] = arrays["mean"][:3]
        with pytest.raises(LearningError, match="features"):
            FrozenEmbedding.from_arrays(arrays)

    def test_gamma_as_a_vector(self):
        arrays = _embedding().to_arrays()
        arrays["gamma"] = np.array([0.5, 0.5])
        with pytest.raises(LearningError, match="gamma"):
            FrozenEmbedding.from_arrays(arrays)
