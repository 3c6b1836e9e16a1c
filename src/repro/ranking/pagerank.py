"""The PageRank ranking model (§5.2 baseline).

Per the paper: "do page rank based on the same graph with the one used for
random walk, except that the edges are undirected", with teleporting
probability 0.15 (damping 0.85) and uniform teleport — no restart
preference for core instances, which is exactly why it underperforms the
random-walk model.  That is the random walk with restart over the
symmetrised trigger graph with a uniform restart, so it runs on the same
union kernel (:mod:`repro.ranking.random_walk`): the same fixed steps,
the same blockwise-exact batching and the same ``rank.batch`` span.
"""

from __future__ import annotations

import numpy as np

from .graph import ConceptGraph
from .random_walk import RandomWalkRanker

__all__ = ["PageRankRanker"]


class PageRankRanker(RandomWalkRanker):
    """Undirected PageRank over the per-concept trigger graph."""

    def __init__(self, teleport: float = 0.15) -> None:
        if not 0.0 < teleport < 1.0:
            raise ValueError("teleport must be in (0, 1)")
        super().__init__(restart_probability=teleport)

    def _walk_graph(self, graph: ConceptGraph) -> ConceptGraph:
        # Every directed edge contributes its weight in both directions;
        # teleport lands on every node alike.
        return ConceptGraph(
            concept=graph.concept,
            nodes=graph.nodes,
            sources=np.concatenate([graph.sources, graph.targets]),
            targets=np.concatenate([graph.targets, graph.sources]),
            weights=np.concatenate([graph.weights, graph.weights]),
            restart=np.ones(graph.size),
        )
