"""Per-concept trigger graphs.

§3.1 of the paper: "we build a random walk graph for each target class,
where each instance under the class is taken as a node, and each sentence
parsing [is] represented as edges pointing from an instance to its
triggered sub-instances".  Restart mass sits on the iteration-1 (core)
instances, weighted by their core evidence.

Graphs are stored in CSR form (``indptr``/``indices``/``data``) so the
random-walk kernel runs in O(E) per power-iteration step, and
:func:`build_concept_graphs` reads each concept's provenance through the
KB's per-concept record index, so building a batch costs O(records of
those concepts) — not O(all records × concepts).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from ..kb.store import KnowledgeBase

# kb → {concept: (list_length, codes array, rids array)} — materialised
# views of the KB's append-only edge-occurrence lists.  Only re-converted
# when the list has grown (it never shrinks).
_EDGE_ARRAY_CACHE: "weakref.WeakKeyDictionary[KnowledgeBase, dict]" = (
    weakref.WeakKeyDictionary()
)

__all__ = ["ConceptGraph", "build_concept_graphs"]


@dataclass(frozen=True, eq=False)
class ConceptGraph:
    """Trigger graph of one concept, in CSR form.

    ``nodes`` is a stable-ordered tuple of instance names; row ``i`` of the
    adjacency holds the out-edges of node ``i``: its targets are
    ``indices[indptr[i]:indptr[i + 1]]`` with weights in the matching slice
    of ``data``.  ``restart`` is the (unnormalised) restart weight per
    node — positive exactly on core instances.
    """

    concept: str
    nodes: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    restart: np.ndarray

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.nodes)


def build_concept_graphs(
    kb: KnowledgeBase, concepts: Iterable[str]
) -> dict[str, ConceptGraph]:
    """Build the trigger graphs of many concepts in one batch.

    Each concept's edges come from the KB's per-concept record index, so
    the batch touches only the provenance of the requested concepts — a
    cache-driven rebuild of a few dirty concepts does not pay for the
    whole record table.
    """
    names = list(dict.fromkeys(concepts))
    arrays = _EDGE_ARRAY_CACHE.setdefault(kb, {})
    graphs: dict[str, ConceptGraph] = {}
    for concept in names:
        nodes = tuple(sorted(kb.instances_of(concept)))
        n = len(nodes)
        index = {name: i for i, name in enumerate(nodes)}
        codes_list, rids_list = kb.edge_occurrences(concept)
        entry = arrays.get(concept)
        if entry is None or entry[0] != len(codes_list):
            entry = (
                len(codes_list),
                np.array(codes_list, dtype=np.int64),
                np.array(rids_list, dtype=np.int64),
            )
            arrays[concept] = entry
        _, codes_all, rids_all = entry
        if codes_all.size:
            # Keep occurrences from active records whose endpoints are
            # both still alive; remap stable ids to node positions and
            # merge duplicates (np.unique also CSR-sorts the codes).
            active = np.frombuffer(kb.record_active_flags(), dtype=bool)
            codes = codes_all[active[rids_all]]
            ids = kb.instance_id_map(concept)
            positions = np.full(len(ids), -1, dtype=np.int64)
            for name, i in index.items():
                positions[ids[name]] = i
            source_pos = positions[codes >> 32]
            target_pos = positions[codes & 0xFFFFFFFF]
            valid = (source_pos >= 0) & (target_pos >= 0)
            merged, counts = np.unique(
                source_pos[valid] * n + target_pos[valid], return_counts=True
            )
        else:
            merged = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        sources = merged // n if n else merged
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.add.at(indptr, sources + 1, 1)
        np.cumsum(indptr, out=indptr)
        core = kb.core_counts(concept)
        graphs[concept] = ConceptGraph(
            concept=concept,
            nodes=nodes,
            indptr=indptr,
            indices=(merged - sources * n).astype(np.intp),
            data=counts.astype(float),
            restart=np.array(
                [float(core.get(name, 0)) for name in nodes], dtype=float
            ),
        )
    return graphs

