"""The Random-Walk-with-Restart ranking model (§3.1, §5.2).

The paper's chosen scorer (after Tong et al., ICDM 2006): the score of an
instance is the stationary probability of a walk over the directed trigger
graph that restarts — with probability 0.15 per step — at the iteration-1
(core) instances, weighted by their core evidence.  Drift errors are only
reachable through (rare) trigger chains out of the core, so they score low
even when frequent; that is the advantage over the Frequency model.

The kernel is sparse: each power-iteration step costs O(E) (one gather and
one scatter over the CSR arrays) instead of the dense O(n²) matrix-vector
product, which survives only as the oracle in ``tests/ranking/``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..kb.store import KnowledgeBase
from ..runtime.context import NULL_CONTEXT, RunContext
from .base import Ranker
from .graph import ConceptGraph, build_concept_graphs

__all__ = ["RandomWalkRanker"]


def _normalised_restart(graph: ConceptGraph) -> np.ndarray:
    restart = np.asarray(graph.restart, dtype=float)
    if restart.sum() <= 0:
        # No core instances (degenerate concept): restart uniformly.
        restart = np.full(graph.size, 1.0)
    return restart / restart.sum()


class UnionSolve(NamedTuple):
    """The scores of one union solve, and how the solve stopped."""

    #: One ``{node: score}`` per input graph, in input order.
    scores: list[dict[str, float]]
    #: Power-iteration steps run.
    iterations: int
    #: Blocks still above the tolerance when the step cap stopped them.
    capped_blocks: int


def _random_walk_scores_union(
    graphs: list[ConceptGraph],
    restart_probability: float,
    max_iterations: int,
    tolerance: float,
) -> UnionSolve:
    """Solve many disjoint graphs in one block-diagonal power iteration.

    The graphs never interact (the union adjacency is block-diagonal, the
    restart is normalised per block, dangling mass redistributes within its
    own block), so each block's iterates match a standalone solve; a block
    is frozen the first iteration its own L1 residual falls below
    ``tolerance``, preserving standalone early-stopping.  Batching
    amortises the numpy call overhead of a step over every concept, which
    is what makes scoring hundreds of small graphs cheap.

    In practice the step cap, not the tolerance, ends most solves: the
    restart contraction alone guarantees only 0.85^100 ≈ 9e-8 after 100
    steps, far above the default 1e-12.  Counted by the ``rank.batch``
    span's ``capped_blocks`` on the benchmark's seed-11 passes: 7 of 9
    union solves in ``table3`` (761 steps, 72 capped blocks) and 23 of 29
    in ``ingest-clean`` (2,306 steps, 228 capped blocks) stop at the cap
    with some block unconverged.
    """
    # Lazy: scipy loads a second OpenBLAS runtime (about 28 MB, 0.3 s).
    from scipy import sparse

    solutions: list[dict[str, float] | None] = [
        {} if graph.size == 0 else None for graph in graphs
    ]
    blocks = [graph for graph in graphs if graph.size]
    count = len(blocks)
    if count == 0:
        return UnionSolve([solution or {} for solution in solutions], 0, 0)
    sizes = np.array([graph.size for graph in blocks], dtype=np.intp)
    starts = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    total = int(starts[-1])
    keep = 1.0 - restart_probability
    restart = np.concatenate([_normalised_restart(graph) for graph in blocks])
    sources = np.concatenate(
        [
            starts[i] + np.repeat(np.arange(graph.size), np.diff(graph.indptr))
            for i, graph in enumerate(blocks)
        ]
    )
    targets = np.concatenate(
        [starts[i] + graph.indices for i, graph in enumerate(blocks)]
    )
    data = np.concatenate([graph.data for graph in blocks])
    out_weight = np.bincount(sources, weights=data, minlength=total)
    transition = data / out_weight[sources] if len(sources) else data
    dangling = np.nonzero(out_weight <= 0)[0]
    block_of = np.repeat(np.arange(count), sizes)
    dangling_block = block_of[dangling]
    # One CSR matrix with M[target, source] = P(source → target); a matvec
    # is then the propagation step for every block at once.
    propagate = sparse.csr_matrix(
        (transition, (targets, sources)), shape=(total, total)
    )
    segment_starts = starts[:-1]
    p = restart.copy()
    result = np.empty(total)
    done = np.zeros(count, dtype=bool)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        dangling_mass = np.bincount(
            dangling_block, weights=p[dangling], minlength=count
        )
        updated = propagate @ p
        updated *= keep
        # (1-α)·(propagated + mass·restart) + α·restart, with the two
        # restart terms folded into one per-block coefficient.
        coefficient = keep * dangling_mass + restart_probability
        updated += coefficient[block_of] * restart
        p -= updated
        np.abs(p, out=p)
        residual = np.add.reduceat(p, segment_starts)
        converged = ~done & (residual < tolerance)
        if converged.any():
            for block in np.nonzero(converged)[0]:
                segment = slice(starts[block], starts[block + 1])
                result[segment] = updated[segment]
            done[converged] = True
        p = updated
        if done.all():
            break
    capped = np.nonzero(~done)[0]
    for block in capped:
        segment = slice(starts[block], starts[block + 1])
        result[segment] = p[segment]
    solved = iter(
        dict(zip(graph.nodes, result[starts[i] : starts[i + 1]].tolist()))
        for i, graph in enumerate(blocks)
    )
    scores = [
        next(solved) if solution is None else solution
        for solution in solutions
    ]
    return UnionSolve(scores, iterations, len(capped))


class RandomWalkRanker(Ranker):
    """RWR from the core, over the directed trigger graph.

    Every solve routes through the union batch kernel, so a concept's
    scores are bit-identical whichever batch it was solved in — which is
    what lets :class:`Ranker`'s mutation-versioned score cache re-solve
    only the concepts a mutation touched.  A solve runs at most
    ``max_iterations`` steps; ``tolerance`` freezes a block early, but at
    the default 1e-12 most solves run all 100 steps (see
    :func:`_random_walk_scores_union`), which the ``rank.batch`` span
    reports as ``iterations`` and ``capped_blocks``.
    """

    def __init__(
        self,
        restart_probability: float = 0.15,
        max_iterations: int = 100,
        tolerance: float = 1e-12,
        context: RunContext | None = None,
    ) -> None:
        if not 0.0 < restart_probability < 1.0:
            raise ValueError("restart_probability must be in (0, 1)")
        super().__init__()
        self._restart = restart_probability
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self.context = context or NULL_CONTEXT

    def score(self, kb: KnowledgeBase, concept: str) -> dict[str, float]:
        return self._score_batch(kb, [concept])[concept]

    def _score_batch(
        self, kb: KnowledgeBase, concepts: list[str]
    ) -> dict[str, dict[str, float]]:
        with self.context.span("rank.batch", concepts=len(concepts)) as span:
            graphs = build_concept_graphs(kb, concepts)
            ordered = [graphs[concept] for concept in concepts]
            span.add("nodes", sum(graph.size for graph in ordered))
            solve = _random_walk_scores_union(
                ordered,
                restart_probability=self._restart,
                max_iterations=self._max_iterations,
                tolerance=self._tolerance,
            )
            span.add("iterations", solve.iterations)
            span.add("capped_blocks", solve.capped_blocks)
            return dict(zip(concepts, solve.scores))
