"""Per-concept trigger graphs.

§3.1 of the paper: "we build a random walk graph for each target class,
where each instance under the class is taken as a node, and each sentence
parsing [is] represented as edges pointing from an instance to its
triggered sub-instances".  Restart mass sits on the iteration-1 (core)
instances, weighted by their core evidence.

A graph is its merged edge list (``sources``/``targets``/``weights``),
the form the random-walk kernel stacks into one sparse matrix per batch,
and :func:`build_concept_graphs` reads each concept's provenance through
the KB's per-concept record index, so building a batch costs O(records of
those concepts) — not O(all records × concepts).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from ..kb.store import KnowledgeBase

__all__ = ["ConceptGraph", "build_concept_graphs"]


@dataclass(frozen=True, eq=False)
class ConceptGraph:
    """Trigger graph of one concept, as a merged edge list.

    ``nodes`` is a stable-ordered tuple of instance names; edge ``k`` runs
    from node ``sources[k]`` to node ``targets[k]`` with weight
    ``weights[k]`` (:func:`build_concept_graphs` emits one edge per
    (source, target), sorted by source then target; the walk kernel needs
    neither).  ``restart`` is the (unnormalised) restart weight per node —
    positive exactly on core instances.
    """

    concept: str
    nodes: tuple[str, ...]
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    restart: np.ndarray

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.nodes)


def build_concept_graphs(
    kb: KnowledgeBase, concepts: Iterable[str]
) -> dict[str, ConceptGraph]:
    """Build the trigger graphs of many concepts in one batch.

    Each concept's nodes, edges and restart weights come from the KB's
    id-indexed arrays (:meth:`~repro.kb.KnowledgeBase.edge_arrays` and
    :meth:`~repro.kb.KnowledgeBase.concept_state`), so the batch touches
    only the provenance of the requested concepts and no record object.
    """
    active = np.frombuffer(kb.record_active_flags(), dtype=bool)
    graphs: dict[str, ConceptGraph] = {}
    for concept in dict.fromkeys(concepts):
        state = kb.concept_state(concept)
        n = len(state.names)
        codes, rids = kb.edge_arrays(concept)
        # Keep occurrences from active records whose endpoints are both
        # still alive; remap ids to node positions (nodes are the alive
        # instances in sorted order) and merge duplicates (np.unique also
        # sorts the edges by source, then target).
        codes = codes[active[rids]]
        positions = np.full(len(state.alive), -1, dtype=np.int64)
        positions[state.ids] = np.arange(n)
        source_pos = positions[codes >> 32]
        target_pos = positions[codes & 0xFFFFFFFF]
        valid = (source_pos >= 0) & (target_pos >= 0)
        merged, counts = np.unique(
            source_pos[valid] * n + target_pos[valid], return_counts=True
        )
        sources, targets = np.divmod(merged, n)
        graphs[concept] = ConceptGraph(
            concept=concept,
            nodes=state.names,
            sources=sources,
            targets=targets,
            weights=counts.astype(float),
            restart=state.core_count[state.ids].astype(float),
        )
    return graphs
