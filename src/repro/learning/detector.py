"""DP detector facade (§3.3 + the Table 4 baselines).

One entry point covers every detection method the paper evaluates:

* ``multitask`` — kernel PCA + semi-supervised multi-task least squares
  (Algorithm 1), the paper's method;
* ``semisupervised`` — the same without cross-concept coupling (Eq. 15);
* ``supervised`` — a random forest on the raw features, pooled across
  concepts (the conventional baseline);
* ``adhoc1`` … ``adhoc4`` — single-property threshold detectors.

Concepts whose seed set is empty (a third of concepts in the paper) fall
back to a *pooled* detector trained on the union of all seeds — the
practical necessity the paper's multi-task motivation points at.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from ..config import DetectorConfig
from ..errors import LearningError, NotFittedError
from ..features.matrix import ConceptMatrix
from ..labeling.labels import DPLabel
from ..labeling.rules import SeedLabelSet
from ..rng import generator_from
from ..runtime.context import NULL_CONTEXT, RunContext
from .adhoc import AdHocDetector
from .embedding import FrozenEmbedding
from .multitask import MultiTaskTrainer
from .local_predictor import manifold_matrices
from .random_forest import RandomForestClassifier
from .semisupervised import solve_semisupervised
from .training_data import ConceptTrainingData, build_training_data

__all__ = ["DPDetector", "DetectorRefitCache", "DETECTION_METHODS"]

DETECTION_METHODS = (
    "multitask",
    "semisupervised",
    "supervised",
    "adhoc1",
    "adhoc2",
    "adhoc3",
    "adhoc4",
)

_CLASS_ORDER = (DPLabel.INTENTIONAL, DPLabel.ACCIDENTAL, DPLabel.NON_DP)

#: The local manifold predictors (§3.3.2): neighbours per block, ridge term.
K_NEIGHBORS = 5
LOCAL_REG = 0.1
#: Eq. 18's weights: ``λ`` on all regularisers, ``β`` on the ℓ2,1 norm,
#: ``γ`` on the Frobenius norm (not the kernel width ``KPCA_GAMMA``).
REG_LAMBDA = 0.1
L21_BETA = 0.1
FROBENIUS_GAMMA = 0.01


class DetectorRefitCache:
    """One frozen embedding, and the transforms and manifolds fitted under it.

    The first fit under a cache fits the embedding (standardisation +
    KPCA basis) and stores it here; every later fit under the same cache
    reuses it, so the entries below always belong to that one basis.

    A transform entry is validated by **content**: it hits when the cached
    matrix has the same instances and bit-equal features as the new one,
    so the cached transform is exactly what a recomputation would return.
    A manifold regulariser is reused when its concept's transform was, by
    identity of that transform.
    """

    __slots__ = ("embedding", "transforms", "manifolds")

    def __init__(self) -> None:
        self.embedding: FrozenEmbedding | None = None
        self.transforms: dict[str, tuple[ConceptMatrix, np.ndarray]] = {}
        self.manifolds: dict[str, tuple[np.ndarray, np.ndarray]] = {}


class DPDetector:
    """Classifies every (concept, instance) as Intentional / Accidental / non-DP."""

    def __init__(
        self,
        config: DetectorConfig | None = None,
        method: str = "multitask",
        seed: int | np.random.Generator | None = None,
        context: RunContext | None = None,
    ) -> None:
        if method not in DETECTION_METHODS:
            known = ", ".join(DETECTION_METHODS)
            raise LearningError(f"unknown method {method!r} (known: {known})")
        self._config = config or DetectorConfig()
        self._method = method
        self._ctx = context or NULL_CONTEXT
        self._rng = generator_from(seed)
        self._matrices: dict[str, ConceptMatrix] = {}
        self._transformed: dict[str, np.ndarray] = {}
        self._weights: dict[str, np.ndarray] = {}
        self._pooled_weight: np.ndarray | None = None
        self._forest: RandomForestClassifier | None = None
        self._adhoc: AdHocDetector | None = None
        self._datasets: dict[str, ConceptTrainingData] = {}
        self.accuracy_history: list[float] = []
        self.objective_history: list[float] = []
        self._fitted = False

    @property
    def method(self) -> str:
        """The detection method in use."""
        return self._method

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        matrices: Mapping[str, ConceptMatrix],
        seeds: SeedLabelSet,
        eval_fn: Callable[["DPDetector"], float] | None = None,
        *,
        refit_cache: DetectorRefitCache | None = None,
    ) -> "DPDetector":
        """Train on per-concept matrices and automatically labelled seeds.

        ``eval_fn`` (multitask only) is called after each training
        iteration with the partially trained detector; its return values
        populate :attr:`accuracy_history` (Fig. 5c).

        ``refit_cache`` carries the embedding across fits: the first fit
        under it fits the standardisation + KPCA basis on the supplied
        matrices and stores it, later fits reuse it (the cleaning loop
        freezes round one's embedding for later rounds), together with
        the per-concept transforms and manifold regularisers of matrices
        equal in content to a previous fit's (bit-exact by construction).
        Without one, a fresh cache serves this fit alone.
        """
        if refit_cache is None:
            refit_cache = DetectorRefitCache()
        self._matrices = dict(matrices)
        if not self._matrices:
            raise LearningError("no concept matrices supplied")
        ctx = self._ctx
        with ctx.span(
            "detector.fit", method=self._method, concepts=len(self._matrices)
        ) as span:
            if self._method in ("supervised",) or self._method.startswith(
                "adhoc"
            ):
                self._fit_raw_baseline(seeds)
                self._fitted = True
                return self
            self._embed(refit_cache)
            self._build_datasets(seeds, refit_cache)
            labelled = [d for d in self._datasets.values() if d.n_labeled > 0]
            if not labelled:
                raise LearningError("no concept has labelled seeds")
            span.set(labelled_concepts=len(labelled))
            with ctx.span("detector.pooled"):
                self._fit_pooled(labelled)
            if self._method == "multitask":
                trainer = MultiTaskTrainer(
                    lam=REG_LAMBDA,
                    beta=L21_BETA,
                    gamma=FROBENIUS_GAMMA,
                    iterations=self._config.training_iterations,
                    tolerance=self._config.tolerance,
                    seed=self._rng,
                )
                wrapped = None
                if eval_fn is not None:
                    wrapped = self._wrap_eval(eval_fn)
                with ctx.span("detector.train", method="multitask") as tspan:
                    result = trainer.fit(labelled, eval_fn=wrapped)
                    tspan.add("iterations", len(result.objective_history))
                self._weights = result.weights
                self.objective_history = result.objective_history
                self.accuracy_history = result.accuracy_history
            else:  # semisupervised: independent closed forms
                with ctx.span("detector.train", method="semisupervised"):
                    self._weights = {
                        d.concept: solve_semisupervised(
                            d,
                            lam=REG_LAMBDA,
                            beta=L21_BETA,
                            context=ctx,
                        )
                        for d in labelled
                    }
            self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_concept(self, concept: str) -> dict[str, DPLabel]:
        """Label every instance of one concept."""
        if not self._fitted:
            raise NotFittedError("DPDetector")
        matrix = self._matrices.get(concept)
        if matrix is None:
            raise LearningError(f"concept {concept!r} was not fitted")
        if matrix.size == 0:
            return {}
        if self._method == "supervised":
            classes = self._forest.predict(matrix.x)
            return {
                name: _CLASS_ORDER[int(c)]
                for name, c in zip(matrix.instances, classes)
            }
        if self._method.startswith("adhoc"):
            labels = self._adhoc.predict(matrix.x)
            return dict(zip(matrix.instances, labels))
        weight = self._weights.get(concept, self._pooled_weight)
        scores = self._transformed[concept] @ weight
        if self._config.non_dp_bias:
            # High-recall operating point: handicap the non-DP class so
            # borderline instances are surfaced as DP candidates.  The
            # DP cleaner's definition-level guards and Eq. 21 arbitration
            # absorb the extra false positives.
            scores[:, 2] -= self._config.non_dp_bias
        choices = np.argmax(scores, axis=1)
        return {
            name: _CLASS_ORDER[choice]
            for name, choice in zip(matrix.instances, choices)
        }

    def predict_all(self) -> dict[str, dict[str, DPLabel]]:
        """Labels for every fitted concept."""
        return {
            concept: self.predict_concept(concept) for concept in self._matrices
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _embed(self, cache: DetectorRefitCache) -> None:
        with self._ctx.span("detector.embed") as span:
            embedding = cache.embedding
            span.set(fitted=embedding is None)
            if embedding is None:
                embedding = cache.embedding = FrozenEmbedding.fit(
                    self._matrices, seed=self._rng
                )
            # Projection stays per concept: the blocks fit in cache,
            # whereas a pooled kernel-matrix transform thrashes on its own
            # temporaries.
            self._transformed = {}
            reused = 0
            for concept, matrix in self._matrices.items():
                entry = cache.transforms.get(concept)
                if (
                    entry is not None
                    and entry[0].instances == matrix.instances
                    and np.array_equal(entry[0].x, matrix.x)
                ):
                    transformed = entry[1]
                    reused += 1
                else:
                    transformed = embedding.transform(matrix.x)
                    cache.transforms[concept] = (matrix, transformed)
                self._transformed[concept] = transformed
            span.add("transforms_reused", reused)
            span.add(
                "transforms_computed", len(self._matrices) - reused
            )

    def _build_datasets(
        self, seeds: SeedLabelSet, cache: DetectorRefitCache
    ) -> None:
        counts = seeds.counts()
        totals = np.array(
            [max(1, counts.get(label, 0)) for label in _CLASS_ORDER],
            dtype=float,
        )
        class_weights = totals.sum() / (3.0 * totals)
        # Only concepts with seed labels ever enter training (pooled or
        # multi-task); seed-less ones are predicted with the pooled weight
        # and need no dataset — and, above all, no manifold regulariser,
        # the most expensive per-concept artefact.
        with_seeds = [
            (concept, matrix)
            for concept, matrix in self._matrices.items()
            if matrix.size != 0 and seeds.labels_for(concept)
        ]
        # Resolve manifold regularisers first: cached ones by transform
        # identity, the rest in one batched computation.
        with self._ctx.span("detector.datasets") as span:
            manifolds: dict[str, np.ndarray] = {}
            pending: dict[str, np.ndarray] = {}
            for concept, matrix in with_seeds:
                transformed = self._transformed[concept]
                entry = cache.manifolds.get(concept)
                if entry is not None and entry[0] is transformed:
                    manifolds[concept] = entry[1]
                    continue
                pending[concept] = transformed
            if pending:
                fresh = manifold_matrices(pending, K_NEIGHBORS, LOCAL_REG)
                for concept, a in fresh.items():
                    manifolds[concept] = a
                    cache.manifolds[concept] = (pending[concept], a)
            span.add("manifolds_reused", len(with_seeds) - len(pending))
            span.add("manifolds_computed", len(pending))
            self._datasets = {}
            for concept, matrix in with_seeds:
                self._datasets[concept] = build_training_data(
                    matrix,
                    self._transformed[concept],
                    seeds.labels_for(concept),
                    manifolds[concept],
                    class_weights=class_weights,
                )

    def _fit_pooled(self, labelled: list[ConceptTrainingData]) -> None:
        """Fallback detector for concepts without their own seeds."""
        weighted = [d.weighted_rows() for d in labelled]
        x_rows = np.vstack([x for x, _ in weighted])
        y_rows = np.vstack([y for _, y in weighted])
        r = x_rows.shape[1]
        mean_a = np.zeros((r, r))
        for data in labelled:
            mean_a += data.a
        mean_a /= len(labelled)
        lhs = (
            x_rows.T @ x_rows
            + REG_LAMBDA * mean_a
            + REG_LAMBDA * L21_BETA * np.eye(r)
        )
        self._pooled_weight = np.linalg.solve(lhs, x_rows.T @ y_rows)

    def _fit_raw_baseline(self, seeds: SeedLabelSet) -> None:
        rows = []
        classes = []
        for concept, matrix in self._matrices.items():
            index = {name: i for i, name in enumerate(matrix.instances)}
            for seed in seeds.labels_for(concept):
                row = index.get(seed.instance)
                if row is None:
                    continue
                rows.append(matrix.x[row])
                classes.append(_CLASS_ORDER.index(seed.label))
        if not rows:
            raise LearningError("no seeds align with the supplied matrices")
        x = np.vstack(rows)
        y = np.array(classes, dtype=int)
        if self._method == "supervised":
            self._forest = RandomForestClassifier(
                n_trees=50, max_depth=8, seed=self._rng
            )
            self._forest.fit(x, y)
        else:
            property_id = int(self._method[-1])
            is_dp = y != _CLASS_ORDER.index(DPLabel.NON_DP)
            self._adhoc = AdHocDetector(property_id).fit(x, is_dp)

    def _wrap_eval(
        self, eval_fn: Callable[["DPDetector"], float]
    ) -> Callable[[Mapping[str, np.ndarray]], float]:
        def wrapped(weights: Mapping[str, np.ndarray]) -> float:
            self._weights = dict(weights)
            if self._pooled_weight is None and weights:
                self._pooled_weight = next(iter(weights.values()))
            self._fitted = True
            return eval_fn(self)

        return wrapped
