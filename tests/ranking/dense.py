"""Dense reference forms of the trigger graph and the RWR solver.

The production kernel only ever reads a graph's CSR arrays; the
dict-of-dicts adjacency here is the plain form the dense O(n²) oracle and
the graph tests read instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.ranking.graph import ConceptGraph


def adjacency(graph: ConceptGraph) -> dict[int, dict[int, float]]:
    """The graph's adjacency as ``{source: {target: weight}}``."""
    edges: dict[int, dict[int, float]] = {}
    for source in range(graph.size):
        start, stop = graph.indptr[source], graph.indptr[source + 1]
        if start == stop:
            continue
        edges[source] = {
            int(t): float(w)
            for t, w in zip(graph.indices[start:stop], graph.data[start:stop])
        }
    return edges


def graph_from_edge_dict(
    concept: str,
    nodes: tuple[str, ...],
    edges: Mapping[int, Mapping[int, float]],
    restart: Iterable[float],
) -> ConceptGraph:
    """Build a CSR graph from the dict-of-dicts adjacency form."""
    triplets = sorted(
        (source, target, float(weight))
        for source, row in edges.items()
        for target, weight in row.items()
    )
    n = len(nodes)
    sources = np.array([t[0] for t in triplets], dtype=np.intp)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.add.at(indptr, sources + 1, 1)
    np.cumsum(indptr, out=indptr)
    return ConceptGraph(
        concept=concept,
        nodes=nodes,
        indptr=indptr,
        indices=np.array([t[1] for t in triplets], dtype=np.intp),
        data=np.array([t[2] for t in triplets], dtype=float),
        restart=np.asarray(tuple(restart), dtype=float),
    )


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
    for source, row in adjacency(graph).items():
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
