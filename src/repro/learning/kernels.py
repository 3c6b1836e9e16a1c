"""Kernel functions for the non-linear mapping of §3.3.1."""

from __future__ import annotations

import numpy as np

__all__ = ["rbf_kernel"]


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel ``exp(-gamma * ||a_i - b_j||²)``."""
    sq_a = (a * a).sum(axis=1)[:, None]
    sq_b = (b * b).sum(axis=1)[None, :]
    distances = sq_a + sq_b
    distances -= 2.0 * (a @ b.T)
    np.maximum(distances, 0.0, out=distances)
    distances *= -gamma
    return np.exp(distances, out=distances)

