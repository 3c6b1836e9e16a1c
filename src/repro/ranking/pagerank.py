"""The PageRank ranking model (§5.2 baseline).

Per the paper: "do page rank based on the same graph with the one used for
random walk, except that the edges are undirected", with teleporting
probability 0.15 (damping 0.85) and uniform teleport — no restart
preference for core instances, which is exactly why it underperforms the
random-walk model.  Like the random-walk kernel, the iteration is sparse:
the symmetrised edge list is gathered/scattered directly, O(E) per step.
"""

from __future__ import annotations

import numpy as np

from ..kb.store import KnowledgeBase
from .base import Ranker
from .graph import ConceptGraph, build_concept_graphs

__all__ = ["PageRankRanker"]


class PageRankRanker(Ranker):
    """Undirected PageRank over the per-concept trigger graph."""

    def __init__(
        self,
        teleport: float = 0.15,
        max_iterations: int = 100,
        tolerance: float = 1e-10,
    ) -> None:
        if not 0.0 < teleport < 1.0:
            raise ValueError("teleport must be in (0, 1)")
        super().__init__()
        self._teleport = teleport
        self._max_iterations = max_iterations
        self._tolerance = tolerance

    def score(self, kb: KnowledgeBase, concept: str) -> dict[str, float]:
        return self._score_batch(kb, [concept])[concept]

    def _score_batch(
        self, kb: KnowledgeBase, concepts: list[str]
    ) -> dict[str, dict[str, float]]:
        graphs = build_concept_graphs(kb, concepts)
        return {concept: self._solve(graphs[concept]) for concept in concepts}

    def _solve(self, graph: ConceptGraph) -> dict[str, float]:
        n = graph.size
        if n == 0:
            return {}
        # Symmetrise the trigger graph: every directed edge contributes its
        # weight in both directions.
        directed_sources = np.repeat(np.arange(n), np.diff(graph.indptr))
        sources = np.concatenate([directed_sources, graph.indices])
        targets = np.concatenate([graph.indices, directed_sources])
        weights = np.concatenate([graph.data, graph.data])
        out = np.bincount(sources, weights=weights, minlength=n)
        dangling = out <= 0
        transition = weights / out[sources] if len(sources) else weights
        rank = np.full(n, 1.0 / n)
        uniform = np.full(n, 1.0 / n)
        for _ in range(self._max_iterations):
            dangling_mass = rank[dangling].sum()
            propagated = np.bincount(
                targets, weights=rank[sources] * transition, minlength=n
            )
            updated = (1.0 - self._teleport) * (
                propagated + dangling_mass * uniform
            ) + self._teleport * uniform
            if np.abs(updated - rank).sum() < self._tolerance:
                rank = updated
                break
            rank = updated
        return {name: float(rank[i]) for i, name in enumerate(graph.nodes)}
