"""The dense O(n²) RWR solver: the oracle for the sparse kernel."""

from __future__ import annotations

import numpy as np

from repro.ranking.graph import ConceptGraph


def random_walk_scores_dense(
    graph: ConceptGraph,
    restart_probability: float = 0.15,
    max_iterations: int = 100,
    tolerance: float = 1e-12,
) -> dict[str, float]:
    """RWR by dense matrix-vector power iteration."""
    n = graph.size
    if n == 0:
        return {}
    restart = np.asarray(graph.restart, dtype=float)
    if restart.sum() <= 0:
        restart = np.full(n, 1.0)
    restart = restart / restart.sum()
    transition = np.zeros((n, n), dtype=float)
    for source, row in graph.edges.items():
        total = sum(row.values())
        for target, w in row.items():
            transition[source, target] = w / total
    dangling = transition.sum(axis=1) <= 0
    p = restart.copy()
    for _ in range(max_iterations):
        dangling_mass = p[dangling].sum()
        updated = (1.0 - restart_probability) * (
            transition.T @ p + dangling_mass * restart
        ) + restart_probability * restart
        if np.abs(updated - p).sum() < tolerance:
            p = updated
            break
        p = updated
    return {name: float(p[i]) for i, name in enumerate(graph.nodes)}
