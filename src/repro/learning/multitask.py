"""Concept-Adaptive Drift Detection — Algorithm 1 (§3.3.2).

Trains all concepts' DP detectors jointly by minimising Eq. 18::

    Σ_c ||X_l_cᵀ W_c − Y_c||²_F
      + λ( Σ_c Tr(W_cᵀ A_c W_c) + β ||W||_{2,1} + γ ||W||²_F )

where ``W`` stacks every detector side by side (r × 3t) and the ℓ2,1 norm
over its rows couples feature usage across concepts.  Each outer iteration
updates the re-weighting matrix ``D`` (``D_ii = 1 / (2‖wⁱ‖)``) and then
every ``W_c`` in closed form (Eq. 20); Theorem 1 of the paper guarantees
the objective decreases monotonically, which a regression test asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

import numpy as np

from ..errors import LearningError
from ..rng import generator_from
from .training_data import ConceptTrainingData

__all__ = ["MultiTaskResult", "MultiTaskTrainer"]

_EPS = 1e-12


@dataclass
class MultiTaskResult:
    """Trained detectors plus the optimisation trace."""

    weights: dict[str, np.ndarray]
    objective_history: list[float] = field(default_factory=list)
    accuracy_history: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False


class MultiTaskTrainer:
    """Runs Algorithm 1 over a set of per-concept training bundles."""

    def __init__(
        self,
        lam: float,
        beta: float,
        gamma: float,
        iterations: int,
        tolerance: float,
        seed: int | np.random.Generator | None,
    ) -> None:
        if iterations < 1:
            raise LearningError("iterations must be >= 1")
        self._lam = lam
        self._beta = beta
        self._gamma = gamma
        self._iterations = iterations
        self._tolerance = tolerance
        self._rng = generator_from(seed)

    def fit(
        self,
        datasets: list[ConceptTrainingData],
        eval_fn: Callable[[Mapping[str, np.ndarray]], float] | None = None,
    ) -> MultiTaskResult:
        """Train every concept's detector jointly.

        ``eval_fn`` (optional) receives the current weights after each
        iteration and returns an accuracy — the trace behind Fig. 5c.
        """
        trainable = [d for d in datasets if d.n_labeled > 0]
        if not trainable:
            raise LearningError("no concept has labelled seeds")
        r = trainable[0].x.shape[1]
        for data in trainable:
            if data.x.shape[1] != r:
                raise LearningError(
                    "all concepts must share one transformed feature space"
                )
        weights = {
            d.concept: 0.01 * self._rng.standard_normal((r, 3))
            for d in trainable
        }
        result = MultiTaskResult(weights=weights)
        previous = np.inf
        for iteration in range(1, self._iterations + 1):
            d_diag = self._update_d(weights, r)
            for data in trainable:
                weights[data.concept] = self._solve_concept(data, d_diag)
            objective = self._objective(trainable, weights)
            result.objective_history.append(objective)
            if eval_fn is not None:
                result.accuracy_history.append(float(eval_fn(weights)))
            result.iterations_run = iteration
            if abs(previous - objective) <= self._tolerance * max(
                1.0, abs(previous)
            ):
                result.converged = True
                break
            previous = objective
        return result

    # ------------------------------------------------------------------
    # Algorithm internals
    # ------------------------------------------------------------------
    def _update_d(
        self, weights: Mapping[str, np.ndarray], r: int
    ) -> np.ndarray:
        """``D_ii = 1 / (2 ||wⁱ||)`` over rows of the stacked W (r × 3t)."""
        stacked = np.hstack([weights[c] for c in sorted(weights)])
        row_norms = np.sqrt((stacked * stacked).sum(axis=1))
        return 1.0 / (2.0 * np.maximum(row_norms, _EPS))

    def _solve_concept(
        self, data: ConceptTrainingData, d_diag: np.ndarray
    ) -> np.ndarray:
        """Eq. 20 in row convention (with optional per-row loss weights)."""
        r = data.x.shape[1]
        xl, y = data.weighted_rows()
        lhs = (
            xl.T @ xl
            + self._lam * data.a
            + self._lam * self._beta * np.diag(d_diag)
            + self._lam * self._gamma * np.eye(r)
        )
        return np.linalg.solve(lhs, xl.T @ y)

    def _objective(
        self,
        datasets: list[ConceptTrainingData],
        weights: Mapping[str, np.ndarray],
    ) -> float:
        loss = 0.0
        manifold = 0.0
        for data in datasets:
            w = weights[data.concept]
            xl, y = data.weighted_rows()
            residual = xl @ w - y
            loss += float((residual * residual).sum())
            manifold += float(np.trace(w.T @ data.a @ w))
        stacked = np.hstack([weights[c] for c in sorted(weights)])
        l21 = float(np.sqrt((stacked * stacked).sum(axis=1)).sum())
        frob = float((stacked * stacked).sum())
        return loss + self._lam * (manifold + self._beta * l21 + self._gamma * frob)
