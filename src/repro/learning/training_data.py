"""Per-concept training bundles for the DP detectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LearningError
from ..features.matrix import ConceptMatrix
from ..labeling.labels import SeedLabel, label_to_vector

__all__ = ["ConceptTrainingData", "build_training_data"]


@dataclass
class ConceptTrainingData:
    """Everything Algorithm 1 needs about one concept.

    ``x`` holds the transformed representations of *all* instances (rows),
    labelled and unlabelled alike; ``labeled_idx`` points at the seed rows
    and ``y`` carries their one-hot labels; ``a`` is the manifold
    regulariser built from the full ``x`` (this is where unlabelled data
    enters the training).
    """

    concept: str
    instances: tuple[str, ...]
    x: np.ndarray
    labeled_idx: np.ndarray
    y: np.ndarray
    a: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.x.shape[0] != len(self.instances):
            raise LearningError("x rows must match instances")
        if self.labeled_idx.shape[0] != self.y.shape[0]:
            raise LearningError("labeled_idx and y must align")
        if self.weights is not None and self.weights.shape[0] != self.y.shape[0]:
            raise LearningError("weights and y must align")

    @property
    def n_labeled(self) -> int:
        """Number of seed-labelled rows."""
        return int(self.labeled_idx.shape[0])

    @property
    def x_labeled(self) -> np.ndarray:
        """The labelled rows of ``x``."""
        return self.x[self.labeled_idx]

    def weighted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Labelled rows and targets, scaled by √weight for weighted LS."""
        xl = self.x_labeled
        if self.weights is None:
            return xl, self.y
        root = np.sqrt(self.weights)[:, None]
        return xl * root, self.y * root


def build_training_data(
    matrix: ConceptMatrix,
    transformed: np.ndarray,
    seeds: list[SeedLabel],
    a: np.ndarray,
    class_weights: np.ndarray,
) -> ConceptTrainingData:
    """Assemble one concept's bundle from transformed features and seeds.

    ``a`` is the manifold regulariser of exactly this ``transformed``
    (:func:`~repro.learning.local_predictor.manifold_matrices`).
    ``class_weights`` (length 3, one per label column) scales the squared
    loss per class; the detector passes inverse-frequency weights so the
    dominant non-DP seed class does not drown the DP classes.
    """
    index = matrix.row_index
    rows = []
    labels = []
    for seed in seeds:
        row = index.get(seed.instance)
        if row is None:
            continue
        rows.append(row)
        labels.append(label_to_vector(seed.label))
    labeled_idx = np.array(sorted(set(rows)), dtype=int)
    # Deduplicate while keeping the first label for an instance.
    first_label: dict[int, np.ndarray] = {}
    for row, label in zip(rows, labels):
        first_label.setdefault(row, label)
    y = (
        np.array([first_label[row] for row in labeled_idx], dtype=float)
        if labeled_idx.size
        else np.zeros((0, 3))
    )
    weights = None
    if y.shape[0]:
        weights = y @ np.asarray(class_weights, dtype=float)
    return ConceptTrainingData(
        concept=matrix.concept,
        instances=matrix.instances,
        x=transformed,
        labeled_idx=labeled_idx,
        y=y,
        a=a,
        weights=weights,
    )
