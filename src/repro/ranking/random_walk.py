"""The Random-Walk-with-Restart ranking model (§3.1, §5.2).

The paper's chosen scorer (after Tong et al., ICDM 2006): the score of an
instance is the stationary probability of a walk over the directed trigger
graph that restarts — with probability 0.15 per step — at the iteration-1
(core) instances, weighted by their core evidence.  Drift errors are only
reachable through (rare) trigger chains out of the core, so they score low
even when frequent; that is the advantage over the Frequency model.

One kernel, :func:`_random_walk_scores_union`, serves both graph rankers
(PageRank is this walk over the symmetrised graph, see
:mod:`repro.ranking.pagerank`).  It runs a fixed :data:`WALK_STEPS` of
power iteration, each step one ordered ``np.bincount`` over the stacked
edge lists: O(E) instead of the dense O(n²) product.  That product, and
the CSR mat-vec the step matches bit for bit on trigger graphs, survive
only as oracles in ``tests/ranking/``.
"""

from __future__ import annotations

import numpy as np

from ..kb.store import KnowledgeBase
from ..runtime.context import NULL_CONTEXT, RunContext
from .base import Ranker
from .graph import ConceptGraph, build_concept_graphs

__all__ = ["RandomWalkRanker"]

#: Power-iteration steps per solve, for every block alike.  The restart
#: contraction alone bounds the error after them by 0.85^100 ≈ 9e-8 of
#: the start's.  On the benchmark's seed-11 ``ingest-clean`` unions they
#: land within 3e-10 relative of stopping each block at its first L1
#: step below 1e-12.
WALK_STEPS = 100


def _normalised_restart(graph: ConceptGraph) -> np.ndarray:
    restart = np.asarray(graph.restart, dtype=float)
    if restart.sum() <= 0:
        # No core instances (degenerate concept): restart uniformly.
        restart = np.full(graph.size, 1.0)
    return restart / restart.sum()


def _random_walk_scores_union(
    graphs: list[ConceptGraph], restart_probability: float
) -> list[dict[str, float]]:
    """Solve many disjoint graphs in one block-diagonal power iteration.

    Returns one ``{node: score}`` per input graph, in input order.  The
    graphs never interact (the union adjacency is block-diagonal, the
    restart is normalised per block, dangling mass redistributes within
    its own block) and every block runs the same :data:`WALK_STEPS`, so
    each block's result is bit-identical to a standalone solve — which is
    what lets the score cache re-solve only mutated concepts.  Batching
    amortises the numpy call overhead of a step over every concept, which
    is what makes scoring hundreds of small graphs cheap.
    """
    blocks = [graph for graph in graphs if graph.size]
    if not blocks:
        return [{} for _ in graphs]
    sizes = np.array([graph.size for graph in blocks], dtype=np.intp)
    starts = np.zeros(len(blocks) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    total = int(starts[-1])
    keep = 1.0 - restart_probability
    restart = np.concatenate([_normalised_restart(graph) for graph in blocks])
    offsets = np.repeat(starts[:-1], [len(graph.sources) for graph in blocks])
    sources = np.concatenate([graph.sources for graph in blocks]) + offsets
    targets = np.concatenate([graph.targets for graph in blocks]) + offsets
    weights = np.concatenate([graph.weights for graph in blocks])
    out_weight = np.bincount(sources, weights=weights, minlength=total)
    transition = weights / out_weight[sources]
    dangling = np.nonzero(out_weight <= 0)[0]
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    dangling_block = block_of[dangling]
    p = restart.copy()
    for _ in range(WALK_STEPS):
        dangling_mass = np.bincount(
            dangling_block, weights=p[dangling], minlength=len(blocks)
        )
        # Each edge carries P(source → target)·p[source] to its target, in
        # edge order like a CSR mat-vec (float: no edges gives int64).
        updated = np.bincount(
            targets, weights=transition * p[sources], minlength=total
        ).astype(float, copy=False)
        updated *= keep
        # (1-α)·(propagated + mass·restart) + α·restart, with the two
        # restart terms folded into one per-block coefficient.
        coefficient = keep * dangling_mass + restart_probability
        updated += coefficient[block_of] * restart
        p = updated
    solved = iter(
        dict(zip(graph.nodes, p[starts[i] : starts[i + 1]].tolist()))
        for i, graph in enumerate(blocks)
    )
    return [next(solved) if graph.size else {} for graph in graphs]


class RandomWalkRanker(Ranker):
    """RWR from the core, over the directed trigger graph.

    Every solve routes through the union batch kernel, so a concept's
    scores are bit-identical whichever batch it was solved in — which is
    what lets :class:`Ranker`'s mutation-versioned score cache re-solve
    only the concepts a mutation touched.  Subclasses walk another graph
    over the same nodes by overriding :meth:`_walk_graph`.
    """

    def __init__(
        self,
        restart_probability: float = 0.15,
        context: RunContext | None = None,
    ) -> None:
        if not 0.0 < restart_probability < 1.0:
            raise ValueError("restart_probability must be in (0, 1)")
        super().__init__()
        self._restart = restart_probability
        self.context = context or NULL_CONTEXT

    def _walk_graph(self, graph: ConceptGraph) -> ConceptGraph:
        """The graph the walk runs over: the trigger graph itself."""
        return graph

    def score(self, kb: KnowledgeBase, concept: str) -> dict[str, float]:
        return self._score_batch(kb, [concept])[concept]

    def _score_batch(
        self, kb: KnowledgeBase, concepts: list[str]
    ) -> dict[str, dict[str, float]]:
        with self.context.span("rank.batch", concepts=len(concepts)) as span:
            graphs = build_concept_graphs(kb, concepts)
            ordered = [
                self._walk_graph(graphs[concept]) for concept in concepts
            ]
            span.add("nodes", sum(graph.size for graph in ordered))
            scores = _random_walk_scores_union(ordered, self._restart)
            return dict(zip(concepts, scores))
