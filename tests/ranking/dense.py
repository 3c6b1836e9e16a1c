"""Reference forms of the trigger graph and the two walk solvers.

The production kernel only ever reads a graph's edge-list arrays; the
dict-of-dicts adjacency here is the plain form the dense O(n²) oracles
(RWR and undirected PageRank) and the graph tests read instead.
:func:`random_walk_scores_csr` is the union kernel with each step a
``scipy.sparse`` CSR mat-vec, the form the production ``np.bincount``
step reproduces bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.ranking.graph import ConceptGraph
from repro.ranking.random_walk import WALK_STEPS


def adjacency(graph: ConceptGraph) -> dict[int, dict[int, float]]:
    """The graph's adjacency as ``{source: {target: weight}}``."""
    edges: dict[int, dict[int, float]] = {}
    for source, target, weight in zip(
        graph.sources, graph.targets, graph.weights
    ):
        edges.setdefault(int(source), {})[int(target)] = float(weight)
    return edges


def graph_from_edge_dict(
    concept: str,
    nodes: tuple[str, ...],
    edges: Mapping[int, Mapping[int, float]],
    restart: Iterable[float],
) -> ConceptGraph:
    """Build an edge-list graph from the dict-of-dicts adjacency form."""
    triplets = sorted(
        (source, target, float(weight))
        for source, row in edges.items()
        for target, weight in row.items()
    )
    return ConceptGraph(
        concept=concept,
        nodes=nodes,
        sources=np.array([t[0] for t in triplets], dtype=np.intp),
        targets=np.array([t[1] for t in triplets], dtype=np.intp),
        weights=np.array([t[2] for t in triplets], dtype=float),
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


def pagerank_scores_dense(
    graph: ConceptGraph,
    teleport: float = 0.15,
    max_iterations: int = 100,
    tolerance: float = 1e-12,
) -> dict[str, float]:
    """Undirected PageRank by dense matrix-vector power iteration.

    Each directed edge counts in both directions; a dangling node spreads
    its rank uniformly, and teleport lands uniformly.
    """
    n = graph.size
    if n == 0:
        return {}
    weight = np.zeros((n, n), dtype=float)
    for source, row in adjacency(graph).items():
        for target, w in row.items():
            weight[source, target] += w
            weight[target, source] += w
    out = weight.sum(axis=1)
    dangling = out <= 0
    transition = np.divide(
        weight, out[:, None], out=np.zeros_like(weight),
        where=~dangling[:, None],
    )
    uniform = np.full(n, 1.0 / n)
    rank = uniform.copy()
    for _ in range(max_iterations):
        updated = (1.0 - teleport) * (
            transition.T @ rank + rank[dangling].sum() * uniform
        ) + teleport * uniform
        if np.abs(updated - rank).sum() < tolerance:
            rank = updated
            break
        rank = updated
    return {name: float(rank[i]) for i, name in enumerate(graph.nodes)}


def random_walk_scores_csr(
    graphs: list[ConceptGraph], restart_probability: float = 0.15
) -> list[dict[str, float]]:
    """The union walk with a CSR matrix ``M[target, source]`` per step."""
    blocks = [graph for graph in graphs if graph.size]
    if not blocks:
        return [{} for _ in graphs]
    sizes = [graph.size for graph in blocks]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    total = int(starts[-1])
    keep = 1.0 - restart_probability
    restarts = []
    for graph in blocks:
        restart = np.asarray(graph.restart, dtype=float)
        if restart.sum() <= 0:
            restart = np.full(graph.size, 1.0)
        restarts.append(restart / restart.sum())
    restart = np.concatenate(restarts)
    offsets = np.repeat(starts[:-1], [len(graph.sources) for graph in blocks])
    sources = np.concatenate([graph.sources for graph in blocks]) + offsets
    targets = np.concatenate([graph.targets for graph in blocks]) + offsets
    weights = np.concatenate([graph.weights for graph in blocks])
    out_weight = np.bincount(sources, weights=weights, minlength=total)
    propagate = sparse.csr_matrix(
        (weights / out_weight[sources], (targets, sources)),
        shape=(total, total),
    )
    dangling = np.nonzero(out_weight <= 0)[0]
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    p = restart.copy()
    for _ in range(WALK_STEPS):
        dangling_mass = np.bincount(
            block_of[dangling], weights=p[dangling], minlength=len(blocks)
        )
        updated = propagate @ p
        updated *= keep
        coefficient = keep * dangling_mass + restart_probability
        updated += coefficient[block_of] * restart
        p = updated
    solved = iter(
        dict(zip(graph.nodes, p[starts[i] : starts[i + 1]].tolist()))
        for i, graph in enumerate(blocks)
    )
    return [next(solved) if graph.size else {} for graph in graphs]
