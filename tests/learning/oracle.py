"""Per-neighbourhood reference form of the manifold regulariser.

Production builds every concept's regulariser with the batched
:func:`repro.learning.local_predictor.manifold_matrices`.  The oracle here
follows Eq. 14 and Eq. 17 literally: one local Laplacian per
neighbourhood, scattered into an explicit n × n matrix.
"""

from __future__ import annotations

import numpy as np

from repro.learning import knn_indices


def local_laplacian(block: np.ndarray, local_reg: float) -> np.ndarray:
    """``L_i`` for one neighbourhood (rows of ``block`` are the samples)."""
    m = block.shape[0]
    h = np.eye(m) - np.full((m, m), 1.0 / m)
    # Eq. 14 in row convention (paper's column matrix X̃ᵢ is blockᵀ):
    #   X̃ᵢ H X̃ᵢᵀ + λI  →  blockᵀ H block + λI              (r × r)
    #   L = H − H block (blockᵀ H block + λI)⁻¹ blockᵀ H     (m × m)
    r = block.shape[1]
    inner = block.T @ h @ block + local_reg * np.eye(r)
    middle = np.linalg.solve(inner, block.T @ h)
    laplacian = h - h @ block @ middle
    # Symmetrise against round-off; L must be PSD (Lemma 1 in the paper).
    return 0.5 * (laplacian + laplacian.T)


def manifold_matrix_reference(
    x: np.ndarray, k_neighbors: int, local_reg: float
) -> np.ndarray:
    """``Xᵀ (Σᵢ Sᵢ Lᵢ Sᵢᵀ) X`` with an explicit scatter matrix."""
    n, r = x.shape
    if n == 0:
        return np.zeros((r, r))
    scatter = np.zeros((n, n))
    for neighbours in knn_indices(x, k_neighbors):
        scatter[np.ix_(neighbours, neighbours)] += local_laplacian(
            x[neighbours], local_reg
        )
    return x.T @ scatter @ x
