"""Kernel functions for the non-linear mapping of §3.3.1."""

from __future__ import annotations

import numpy as np

__all__ = ["rbf_kernel"]


def rbf_kernel(
    a: np.ndarray, b: np.ndarray, gamma: float | None = None
) -> np.ndarray:
    """Gaussian kernel ``exp(-gamma * ||a_i - b_j||²)``.

    ``gamma`` defaults to ``1 / (d * var)`` with ``var`` the variance of
    ``a`` (the scikit-learn "scale" heuristic), which keeps the kernel
    well-conditioned across feature scales.
    """
    if gamma is None:
        variance = float(a.var()) if a.size else 1.0
        gamma = 1.0 / (a.shape[1] * variance) if variance > 0 else 1.0
    sq_a = (a * a).sum(axis=1)[:, None]
    sq_b = (b * b).sum(axis=1)[None, :]
    distances = sq_a + sq_b
    distances -= 2.0 * (a @ b.T)
    np.maximum(distances, 0.0, out=distances)
    distances *= -gamma
    return np.exp(distances, out=distances)

