"""Frozen feature embedding shared across detection refits.

The detector z-scores the pooled raw features and projects them through a
kernel-PCA basis fitted on a pooled sample (§3.3.1).  Both the
standardisation statistics and the basis are *global* — they move whenever
any concept's features move — so recomputing them per cleaning round would
force a full refit even when one concept changed.  Instead the first fit
under a :class:`~repro.learning.detector.DetectorRefitCache` fits the
embedding and **freezes** it for every later fit under that cache: the
rounds of one cleaning pass, and in an ingest session the drift passes
after the one that fitted it (a staleness or forced pass refits).
Per-concept transforms stay deterministic functions of the concept's own
raw features, which is what makes the detector's content-keyed transform
reuse bit-exact.  (The cleaner removes a few percent of rows per round;
the fitting round's statistics remain representative.)  A session stores
the embedding as the arrays :meth:`FrozenEmbedding.to_arrays` returns, so
a resumed session transforms rows bit for bit as the live one did.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import LearningError
from ..features.matrix import ConceptMatrix
from .kpca import KernelPCA, float_array

__all__ = ["FrozenEmbedding"]

#: The kernel-PCA basis (§3.3.1): components kept, RBF width ``γ`` over
#: z-scored features, and the rows the basis is fitted on (a larger pool
#: is sampled down; the eigenproblem is cubic in it).
KPCA_COMPONENTS = 15
KPCA_GAMMA = 2.0
KPCA_SAMPLE_SIZE = 600


class FrozenEmbedding:
    """Z-scoring statistics plus a fitted kernel-PCA basis."""

    def __init__(
        self, mean: np.ndarray, std: np.ndarray, kpca: KernelPCA
    ) -> None:
        self.mean = mean
        self.std = std
        self.kpca = kpca

    @property
    def n_components(self) -> int:
        """Dimensionality of the embedded space."""
        return self.kpca.n_components

    @classmethod
    def fit(
        cls,
        matrices: Mapping[str, ConceptMatrix],
        seed: int | np.random.Generator | None = None,
    ) -> "FrozenEmbedding":
        """Fit statistics and basis on the pooled concept matrices."""
        blocks = [m.x for m in matrices.values() if m.size > 0]
        if not blocks:
            raise LearningError("no non-empty concept matrices to embed")
        pooled = np.vstack(blocks)
        # Features live on very different scales (f2 counts vs. 1e-3 walk
        # probabilities); z-score them so no dimension dominates the kernel.
        mean = pooled.mean(axis=0)
        std = np.maximum(pooled.std(axis=0), 1e-9)
        kpca = KernelPCA.fit_on_sample(
            (pooled - mean) / std,
            n_components=KPCA_COMPONENTS,
            gamma=KPCA_GAMMA,
            sample_size=KPCA_SAMPLE_SIZE,
            seed=seed,
        )
        return cls(mean=mean, std=std, kpca=kpca)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Statistics and basis as named float arrays, for storage."""
        return {"mean": self.mean, "std": self.std, **self.kpca.to_arrays()}

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray]
    ) -> "FrozenEmbedding":
        """The embedding :meth:`to_arrays` stored: it transforms bit for bit
        as the original.  Raises ``LearningError`` on a missing array or a
        wrong dtype or shape."""
        kpca = KernelPCA.from_arrays(arrays)
        mean = float_array(arrays, "mean", 1)
        std = float_array(arrays, "std", 1)
        width = arrays["fit_x"].shape[1]
        if mean.shape != (width,) or std.shape != (width,):
            raise LearningError(
                f"mean {mean.shape} and std {std.shape} do not fit "
                f"{width} features"
            )
        return cls(mean=mean, std=std, kpca=kpca)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Embed raw feature rows (deterministic, row-independent)."""
        return self.kpca.transform((x - self.mean) / self.std)
