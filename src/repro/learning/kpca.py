"""Kernel PCA (§3.3.1).

The paper transforms the four raw features into a Hilbert-space
representation via full-rank kernel PCA so that no single dimension (in
practice the mutual-exclusion count ``f2``, which the labelling rules are
biased towards) dominates the detector.

One deliberate deviation, documented in DESIGN.md: the basis is fitted on
a *pooled sample across concepts* rather than per concept.  The multi-task
coupling of §3.3.2 requires all concepts' detectors to live in the same
feature space; a shared basis is the consistent reading.

It runs on numpy alone: the fit keeps the top pairs of ``np.linalg.eigh``,
and a transform is two GEMMs (kernel rows, then projection with the centring
folded in), checked against the explicitly centred kernel of
``tests/learning/oracle.py``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import LearningError, NotFittedError
from ..rng import generator_from
from ..runtime.blas import one_blas_thread

__all__ = ["KernelPCA"]


class KernelPCA:
    """Kernel principal component analysis with a centred RBF kernel
    ``exp(-gamma ‖x - s‖²)``."""

    def __init__(self, n_components: int, gamma: float) -> None:
        if n_components < 1:
            raise LearningError("n_components must be >= 1")
        self._n_components = n_components
        self._gamma = gamma
        self._fit_x: np.ndarray | None = None
        self._alphas: np.ndarray | None = None
        self._column_means: np.ndarray | None = None
        self._total_mean: float = 0.0

    @property
    def n_components(self) -> int:
        """Number of components retained after fitting (may shrink)."""
        if self._alphas is None:
            return self._n_components
        return self._alphas.shape[1]

    def fit(self, x: np.ndarray) -> "KernelPCA":
        """Fit the basis on sample rows ``x`` (n × d)."""
        if x.ndim != 2 or x.shape[0] < 2:
            raise LearningError("KernelPCA.fit needs at least two samples")
        fit_x = np.asarray(x, dtype=float)
        self._set_sample(fit_x)
        k = self._kernel_rows(fit_x)
        self._column_means = k.mean(axis=0)
        self._total_mean = float(k.mean())
        centred = k - self._column_means[None, :]
        centred -= self._column_means[:, None]
        centred += self._total_mean
        # numpy's eigh has no subset driver: take the full spectrum and
        # keep the top pairs.  On one BLAS thread: the basis is stored, and
        # must not depend on the thread count.
        with one_blas_thread():
            eigenvalues, eigenvectors = np.linalg.eigh(centred)
        eigenvalues = eigenvalues[::-1][: self._n_components]
        eigenvectors = eigenvectors[:, ::-1][:, : self._n_components]
        keep = int((eigenvalues > 1e-10).sum())
        if keep < 1:
            raise LearningError("kernel matrix has no positive eigenvalues")
        # Normalise so projections have unit-eigenvalue scaling.
        self._alphas = eigenvectors[:, :keep] / np.sqrt(eigenvalues[:keep])
        self._derive_projection()
        return self

    def _set_sample(self, fit_x: np.ndarray) -> None:
        """Keep the fit sample ``s`` and ``[2γ s ; -γ‖s‖²]``: a row ``x``
        then has ``[x, 1] · [2γ s ; -γ‖s‖²] - γ‖x‖² = -γ‖x - s‖²``."""
        gamma = self._gamma
        self._fit_x = fit_x
        self._sample_terms = np.vstack(
            [2.0 * gamma * fit_x.T, -gamma * (fit_x * fit_x).sum(axis=1)]
        )

    def _kernel_rows(self, x: np.ndarray) -> np.ndarray:
        """RBF kernel rows ``exp(-γ‖x - s‖²)`` against the fit sample."""
        exponents = np.hstack([x, np.ones((len(x), 1))]) @ self._sample_terms
        exponents -= self._gamma * (x * x).sum(axis=1)[:, None]
        # Round-off can push a squared distance below 0.
        np.minimum(exponents, 0.0, out=exponents)
        return np.exp(exponents, out=exponents)

    def _derive_projection(self) -> None:
        """The centred kernel row times ``α`` is ``k·α - mean(k)·Σα +
        (total·Σα - colmeans·α)``; ``k · [α | 1/n]`` yields ``k·α`` and
        ``mean(k)`` in one product."""
        alphas = self._alphas
        mean_column = np.full((len(alphas), 1), 1.0 / len(alphas))
        self._projection = np.hstack([alphas, mean_column])
        self._alpha_sums = alphas.sum(axis=0)
        self._offset = (
            self._total_mean * self._alpha_sums - self._column_means @ alphas
        )

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project rows of ``x`` onto the fitted components."""
        if self._alphas is None or self._fit_x is None:
            raise NotFittedError("KernelPCA")
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.zeros((0, self.n_components))
        projected = self._kernel_rows(x) @ self._projection
        # The last column is each row's kernel mean.
        centred = projected[:, :-1] - projected[:, -1:] * self._alpha_sums
        centred += self._offset
        return centred

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The fitted basis as named float arrays (see :meth:`from_arrays`)."""
        if self._alphas is None or self._fit_x is None:
            raise NotFittedError("KernelPCA")
        return {
            "fit_x": self._fit_x,
            "gamma": np.float64(self._gamma),
            "column_means": self._column_means,
            "total_mean": np.float64(self._total_mean),
            "alphas": self._alphas,
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "KernelPCA":
        """A fitted basis rebuilt from :meth:`to_arrays`, bit for bit.

        Raises ``LearningError`` when an array is missing or has the wrong
        dtype or shape.
        """
        fit_x = float_array(arrays, "fit_x", 2)
        alphas = float_array(arrays, "alphas", 2)
        column_means = float_array(arrays, "column_means", 1)
        n = fit_x.shape[0]
        if n < 2 or alphas.shape[0] != n or alphas.shape[1] < 1:
            raise LearningError(
                f"alphas of shape {alphas.shape} do not fit {n} sample rows"
            )
        if column_means.shape != (n,):
            raise LearningError(
                f"column_means of shape {column_means.shape} do not fit "
                f"{n} sample rows"
            )
        kpca = cls(
            n_components=alphas.shape[1],
            gamma=float(float_array(arrays, "gamma", 0)),
        )
        kpca._set_sample(fit_x)
        kpca._column_means = column_means
        kpca._total_mean = float(float_array(arrays, "total_mean", 0))
        kpca._alphas = alphas
        kpca._derive_projection()
        return kpca

    @classmethod
    def fit_on_sample(
        cls,
        x: np.ndarray,
        n_components: int,
        gamma: float,
        sample_size: int,
        seed: int | np.random.Generator | None,
    ) -> "KernelPCA":
        """Fit on a random row sample (keeps the eigenproblem small)."""
        rng = generator_from(seed)
        if x.shape[0] > sample_size:
            picked = rng.choice(x.shape[0], size=sample_size, replace=False)
            x = x[np.sort(picked)]
        return cls(n_components=n_components, gamma=gamma).fit(x)


def float_array(
    arrays: Mapping[str, np.ndarray], name: str, ndim: int
) -> np.ndarray:
    """``arrays[name]`` if it is a float64 array of ``ndim`` dimensions."""
    array = arrays.get(name)
    if array is None:
        raise LearningError(f"missing array {name!r}")
    if array.dtype != np.float64 or array.ndim != ndim:
        raise LearningError(
            f"array {name!r} is {array.dtype} with {array.ndim} dimensions, "
            f"expected float64 with {ndim}"
        )
    return array
