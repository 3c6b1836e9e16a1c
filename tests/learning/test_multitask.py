"""Tests for Algorithm 1 (multi-task training) and the semi-supervised solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learning import (
    ConceptTrainingData,
    MultiTaskTrainer,
    solve_semisupervised,
)


def _trainer(iterations=20, tolerance=1e-6, seed=0) -> MultiTaskTrainer:
    """Algorithm 1 with the detector's regularisation weights."""
    return MultiTaskTrainer(
        lam=0.1, beta=0.1, gamma=0.01,
        iterations=iterations, tolerance=tolerance, seed=seed,
    )


def _dataset(concept, seed, n=40, r=5, n_labeled=12, shift=0.0):
    """Synthetic 3-class data in a shared feature space."""
    rng = np.random.default_rng(seed)
    centres = np.zeros((3, r))
    centres[0, 0] = 2.0 + shift
    centres[1, 1] = 2.0 + shift
    centres[2, 2] = 2.0 + shift
    classes = rng.integers(0, 3, size=n)
    x = centres[classes] + rng.normal(scale=0.4, size=(n, r))
    labeled_idx = np.arange(n_labeled)
    y = np.zeros((n_labeled, 3))
    y[np.arange(n_labeled), classes[:n_labeled]] = 1.0
    from repro.learning import manifold_matrices

    a = manifold_matrices({concept: x}, k_neighbors=4, local_reg=0.1)
    a = a[concept]
    return (
        ConceptTrainingData(
            concept=concept,
            instances=tuple(f"i{j}" for j in range(n)),
            x=x,
            labeled_idx=labeled_idx,
            y=y,
            a=a,
        ),
        classes,
    )


class TestSemiSupervised:
    def test_learns_separable_classes(self):
        data, classes = _dataset("c1", seed=0)
        w = solve_semisupervised(data, lam=0.05, beta=0.1)
        predictions = (data.x @ w).argmax(axis=1)
        assert (predictions == classes).mean() > 0.85

    def test_rejects_unlabelled_concept(self):
        data, _ = _dataset("c1", seed=0)
        empty = ConceptTrainingData(
            concept="c1",
            instances=data.instances,
            x=data.x,
            labeled_idx=np.zeros(0, dtype=int),
            y=np.zeros((0, 3)),
            a=data.a,
        )
        with pytest.raises(LearningError):
            solve_semisupervised(empty, lam=0.1, beta=0.1)


class TestMultiTaskTrainer:
    def _datasets(self, t=3):
        datasets = []
        truths = {}
        for i in range(t):
            data, classes = _dataset(f"c{i}", seed=i, shift=0.2 * i)
            datasets.append(data)
            truths[f"c{i}"] = classes
        return datasets, truths

    def test_objective_monotonically_decreases(self):
        # Theorem 1 of the paper.
        datasets, _ = self._datasets()
        trainer = _trainer(iterations=15, tolerance=0.0)
        result = trainer.fit(datasets)
        history = result.objective_history
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-8

    def test_learns_all_concepts(self):
        datasets, truths = self._datasets()
        result = _trainer().fit(datasets)
        for data in datasets:
            w = result.weights[data.concept]
            predictions = (data.x @ w).argmax(axis=1)
            assert (predictions == truths[data.concept]).mean() > 0.8

    def test_convergence_flag(self):
        datasets, _ = self._datasets()
        result = _trainer(iterations=50, tolerance=1e-7).fit(
            datasets
        )
        assert result.converged
        assert result.iterations_run < 50

    def test_eval_fn_called_each_iteration(self):
        datasets, _ = self._datasets()
        calls = []

        def eval_fn(weights):
            calls.append(len(weights))
            return 0.5

        result = _trainer(iterations=5, tolerance=0.0).fit(
            datasets, eval_fn=eval_fn
        )
        assert len(calls) == result.iterations_run
        assert result.accuracy_history == [0.5] * result.iterations_run

    def test_requires_labelled_data(self):
        data, _ = _dataset("c1", seed=0)
        empty = ConceptTrainingData(
            concept="c1",
            instances=data.instances,
            x=data.x,
            labeled_idx=np.zeros(0, dtype=int),
            y=np.zeros((0, 3)),
            a=data.a,
        )
        with pytest.raises(LearningError):
            _trainer().fit([empty])

    def test_mismatched_feature_spaces_rejected(self):
        a, _ = _dataset("c1", seed=0, r=5)
        b, _ = _dataset("c2", seed=1, r=4)
        with pytest.raises(LearningError):
            _trainer().fit([a, b])

    def test_deterministic(self):
        datasets, _ = self._datasets()
        r1 = _trainer(seed=5).fit(datasets)
        r2 = _trainer(seed=5).fit(datasets)
        for concept in r1.weights:
            assert np.allclose(r1.weights[concept], r2.weights[concept])

    def test_weighted_rows_applied(self):
        data, classes = _dataset("c1", seed=0)
        weighted = ConceptTrainingData(
            concept=data.concept,
            instances=data.instances,
            x=data.x,
            labeled_idx=data.labeled_idx,
            y=data.y,
            a=data.a,
            weights=np.full(data.n_labeled, 2.0),
        )
        plain = _trainer().fit([data])
        scaled = _trainer().fit([weighted])
        # Uniform weights scale the loss but leave the solution close;
        # both must classify equally well.
        for result in (plain, scaled):
            w = result.weights["c1"]
            predictions = (data.x @ w).argmax(axis=1)
            assert (predictions == classes).mean() > 0.8
