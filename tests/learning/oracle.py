"""Reference forms of the manifold regulariser and the KPCA transform.

Production builds every concept's regulariser with the batched
:func:`repro.learning.local_predictor.manifold_matrices`.  The oracle here
follows Eq. 14 and Eq. 17 literally: one local Laplacian per
neighbourhood, scattered into an explicit n × n matrix.

:meth:`repro.learning.KernelPCA.transform` forms its kernel rows and
their centring as two matrix products; :func:`rbf_kernel` computes the
kernel from pairwise squared distances and
:func:`centred_kernel_transform` centres its rows explicitly, as §3.3.1
writes it.
"""

from __future__ import annotations

import numpy as np

from repro.learning import KernelPCA, knn_indices


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel ``exp(-gamma * ||a_i - b_j||²)``."""
    sq_a = (a * a).sum(axis=1)[:, None]
    sq_b = (b * b).sum(axis=1)[None, :]
    distances = sq_a + sq_b
    distances -= 2.0 * (a @ b.T)
    np.maximum(distances, 0.0, out=distances)
    distances *= -gamma
    return np.exp(distances, out=distances)


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


def centred_kernel_transform(kpca: KernelPCA, x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` projected through the explicitly centred kernel."""
    arrays = kpca.to_arrays()
    k = rbf_kernel(x, arrays["fit_x"], float(arrays["gamma"]))
    centred = (
        k
        - arrays["column_means"][None, :]
        - k.mean(axis=1, keepdims=True)
        + float(arrays["total_mean"])
    )
    return centred @ arrays["alphas"]
