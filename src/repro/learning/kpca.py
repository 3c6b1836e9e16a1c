"""Kernel PCA (§3.3.1).

The paper transforms the four raw features into a Hilbert-space
representation via full-rank kernel PCA so that no single dimension (in
practice the mutual-exclusion count ``f2``, which the labelling rules are
biased towards) dominates the detector.

One deliberate deviation, documented in DESIGN.md: the basis is fitted on
a *pooled sample across concepts* rather than per concept.  The multi-task
coupling of §3.3.2 requires all concepts' detectors to live in the same
feature space; a shared basis is the consistent reading.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import LearningError, NotFittedError
from ..rng import generator_from
from ..runtime.blas import one_blas_thread
from .kernels import rbf_kernel

__all__ = ["KernelPCA"]


class KernelPCA:
    """Kernel principal component analysis with a centred RBF kernel.

    ``gamma=None`` picks the kernel width in :meth:`fit` from the fit
    sample, ``1 / (d * var)`` (the scikit-learn "scale" heuristic), which
    keeps the kernel well-conditioned across feature scales; every
    :meth:`transform` reuses it, so a row embeds the same in any batch.
    """

    def __init__(
        self,
        n_components: int = 8,
        gamma: float | None = None,
    ) -> None:
        if n_components < 1:
            raise LearningError("n_components must be >= 1")
        self._n_components = n_components
        self._gamma = gamma
        self._fit_gamma = 0.0
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
        # Lazy: scipy loads a second OpenBLAS runtime (about 28 MB, 0.3 s).
        from scipy import linalg as scipy_linalg

        if x.ndim != 2 or x.shape[0] < 2:
            raise LearningError("KernelPCA.fit needs at least two samples")
        self._fit_x = np.asarray(x, dtype=float)
        n, d = self._fit_x.shape
        gamma = self._gamma
        if gamma is None:
            variance = float(self._fit_x.var())
            gamma = 1.0 / (d * variance) if variance > 0 else 1.0
        self._fit_gamma = gamma
        k = rbf_kernel(self._fit_x, self._fit_x, gamma)
        self._column_means = k.mean(axis=0)
        self._total_mean = float(k.mean())
        centred = (
            k
            - self._column_means[None, :]
            - self._column_means[:, None]
            + self._total_mean
        )
        # Only the top ``n_components`` eigenpairs are ever kept, so ask
        # LAPACK for just that slice instead of the full spectrum.  On one
        # BLAS thread: the basis is stored, and must not depend on the
        # thread count.
        low = max(0, n - self._n_components)
        with one_blas_thread():
            eigenvalues, eigenvectors = scipy_linalg.eigh(
                centred, subset_by_index=(low, n - 1)
            )
        eigenvalues = eigenvalues[::-1]
        eigenvectors = eigenvectors[:, ::-1]
        keep = min(self._n_components, int((eigenvalues > 1e-10).sum()))
        if keep < 1:
            raise LearningError("kernel matrix has no positive eigenvalues")
        # Normalise so projections have unit-eigenvalue scaling.
        self._alphas = eigenvectors[:, :keep] / np.sqrt(eigenvalues[:keep])
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project rows of ``x`` onto the fitted components."""
        if self._alphas is None or self._fit_x is None:
            raise NotFittedError("KernelPCA")
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.zeros((0, self.n_components))
        k = rbf_kernel(x, self._fit_x, self._fit_gamma)
        row_means = k.mean(axis=1, keepdims=True)
        # Centre in place (the kernel matrix is ours): same operation
        # order as `k - col - row + total`, without the temporaries.
        k -= self._column_means[None, :]
        k -= row_means
        k += self._total_mean
        return k @ self._alphas

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The fitted basis as named float arrays (see :meth:`from_arrays`)."""
        if self._alphas is None or self._fit_x is None:
            raise NotFittedError("KernelPCA")
        return {
            "fit_x": self._fit_x,
            "gamma": np.float64(self._fit_gamma),
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
        kpca = cls(n_components=alphas.shape[1])
        kpca._fit_x = fit_x
        kpca._fit_gamma = float(float_array(arrays, "gamma", 0))
        kpca._column_means = column_means
        kpca._total_mean = float(float_array(arrays, "total_mean", 0))
        kpca._alphas = alphas
        return kpca

    @classmethod
    def fit_on_sample(
        cls,
        x: np.ndarray,
        n_components: int = 8,
        gamma: float | None = None,
        sample_size: int = 600,
        seed: int | np.random.Generator | None = None,
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
