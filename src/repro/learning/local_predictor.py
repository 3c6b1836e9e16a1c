"""The manifold regulariser from local predictors (Eqs. 9–14, 17).

For each instance (labelled or not) a local linear predictor is fitted over
its ``k``-nearest neighbours; disagreement between local predictors and the
global classifier is penalised.  Eliminating the local predictors in closed
form leaves the quadratic penalty ``Tr(Wᵀ A W)`` with

    A = X̃ · ( Σᵢ Sᵢ Lᵢ Sᵢᵀ ) · X̃ᵀ,
    Lᵢ = H − H X̃ᵢᵀ (X̃ᵢ H X̃ᵢᵀ + λI)⁻¹ X̃ᵢ H,

where ``X̃ᵢ`` collects instance *i* and its neighbours and ``H`` is the
centring matrix.  This is how unlabelled instances shape the detector.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import LearningError

__all__ = ["knn_indices", "manifold_matrices"]


def knn_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Index matrix of each row's ``k`` nearest neighbours (self included).

    Returns shape ``(n, min(k + 1, n))``; column 0 is the row itself.

    The whole n × n distance matrix and its full ``argsort`` are built at
    once, so this is the O(n²) term of a concept's memory.  It is not
    blocked by rows because that is not bit-identical: a row block's
    ``x[b] @ x.T`` need not equal the same rows of ``x @ x.T`` bitwise
    (BLAS picks its kernel and accumulation order by operand shape), and
    a flipped last bit can reorder tied neighbours.
    """
    n = x.shape[0]
    if n == 0:
        raise LearningError("cannot compute neighbours of an empty matrix")
    k_eff = min(k + 1, n)
    squared = (x * x).sum(axis=1)
    distances = squared[:, None] + squared[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(distances, -np.inf)  # force self into slot 0
    order = np.argsort(distances, axis=1)
    return order[:, :k_eff]


def manifold_matrices(
    xs: Mapping[str, np.ndarray], k_neighbors: int, local_reg: float
) -> dict[str, np.ndarray]:
    """``A = Xᵀ (Σᵢ Sᵢ Lᵢ Sᵢᵀ) X`` (r × r, row convention) per concept.

    Each ``xs`` value holds one concept's transformed instances as rows
    (n × r).  All of a concept's neighbourhoods share the block shape
    ``(m, r)``, so its ``n`` local Laplacians are one batched solve
    instead of ``n`` independent ones; with ``C = H X̃ᵢ`` being the
    column-centred block, the per-neighbourhood algebra of Eq. 14 becomes

        X̃ᵢᵀ Lᵢ X̃ᵢ = λ Cᵀ (C Cᵀ + λI)⁻¹ C.

    Concepts are solved one at a time, so the call's memory peaks at the
    largest concept's temporaries, not at the sum over all concepts; the
    result for a concept does not depend on which others share the call.
    """
    return {
        name: _manifold_matrix(x, k_neighbors, local_reg)
        for name, x in xs.items()
    }


def _manifold_matrix(
    x: np.ndarray, k_neighbors: int, local_reg: float
) -> np.ndarray:
    """One concept's ``A`` (see :func:`manifold_matrices`)."""
    n, r = x.shape
    if n == 0:
        return np.zeros((r, r))
    blocks = x[knn_indices(x, k_neighbors)]
    m_size = blocks.shape[1]
    # Factor C Cᵀ + λI = G Gᵀ and forward-substitute Y = G⁻¹ C over the
    # m rows: Bᵀ L B = λ Yᵀ Y, PSD by construction (Lemma 1).
    centred = blocks - blocks.mean(axis=1, keepdims=True)
    gram = np.matmul(centred, np.transpose(centred, (0, 2, 1)))
    gram += local_reg * np.eye(m_size)
    factor = np.linalg.cholesky(gram)
    solved = np.empty_like(centred)
    for row in range(m_size):
        known = np.matmul(factor[:, row, None, :row], solved[:, :row])[:, 0]
        solved[:, row] = (centred[:, row] - known) / factor[:, row, row, None]
    # Xᵀ Sᵢ is blocksᵢᵀ, so Σᵢ λ Yᵢᵀ Yᵢ is one product of the stacked
    # Yᵢ, without the n × n scatter matrix Σᵢ Sᵢ Lᵢ Sᵢᵀ.
    stacked = solved.reshape(-1, r)
    return local_reg * (stacked.T @ stacked)
