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
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

import numpy as np

from ..kb.store import KnowledgeBase

# kb → {concept: (concept_version, graph)}.  Graphs are immutable and a
# pure function of the concept's KB state, so any consumer (several
# rankers may hold the same KB) can share one build per concept version.
_GRAPH_CACHE: "weakref.WeakKeyDictionary[KnowledgeBase, dict]" = (
    weakref.WeakKeyDictionary()
)

# kb → {concept: (list_length, codes array, rids array)} — materialised
# views of the KB's append-only edge-occurrence lists.  Only re-converted
# when the list has grown (it never shrinks).
_EDGE_ARRAY_CACHE: "weakref.WeakKeyDictionary[KnowledgeBase, dict]" = (
    weakref.WeakKeyDictionary()
)

__all__ = ["ConceptGraph", "build_concept_graph", "build_concept_graphs"]


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
    _index_cache: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )
    _edges_cache: dict[int, dict[int, float]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def index_of(self, instance: str) -> int | None:
        """Node index for an instance (``None`` if absent)."""
        return self._index.get(instance)

    @property
    def _index(self) -> dict[str, int]:
        cached = self._index_cache
        if cached is None:
            cached = {name: i for i, name in enumerate(self.nodes)}
            object.__setattr__(self, "_index_cache", cached)
        return cached

    @property
    def edges(self) -> dict[int, dict[int, float]]:
        """Adjacency as ``{source: {target: weight}}`` (materialised lazily).

        Compatibility/diagnostics view over the CSR arrays; the kernels
        never touch it.
        """
        cached = self._edges_cache
        if cached is None:
            cached = {}
            for source in range(self.size):
                start, stop = self.indptr[source], self.indptr[source + 1]
                if start == stop:
                    continue
                cached[source] = {
                    int(t): float(w)
                    for t, w in zip(
                        self.indices[start:stop], self.data[start:stop]
                    )
                }
            object.__setattr__(self, "_edges_cache", cached)
        return cached

    def total_edge_weight(self) -> float:
        """Sum of all edge weights (diagnostics)."""
        return float(self.data.sum())

    @classmethod
    def from_edge_dict(
        cls,
        concept: str,
        nodes: tuple[str, ...],
        edges: Mapping[int, Mapping[int, float]],
        restart: Iterable[float],
    ) -> "ConceptGraph":
        """Build a graph from the dict-of-dicts adjacency form."""
        triplets = sorted(
            (source, target, float(weight))
            for source, row in edges.items()
            for target, weight in row.items()
        )
        n = len(nodes)
        sources = np.fromiter(
            (t[0] for t in triplets), dtype=np.intp, count=len(triplets)
        )
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.add.at(indptr, sources + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(
            concept=concept,
            nodes=nodes,
            indptr=indptr,
            indices=np.fromiter(
                (t[1] for t in triplets), dtype=np.intp, count=len(triplets)
            ),
            data=np.fromiter(
                (t[2] for t in triplets), dtype=float, count=len(triplets)
            ),
            restart=np.asarray(tuple(restart), dtype=float),
        )


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
    cache = _GRAPH_CACHE.setdefault(kb, {})
    arrays = _EDGE_ARRAY_CACHE.setdefault(kb, {})
    graphs: dict[str, ConceptGraph] = {}
    for concept in names:
        version = kb.concept_version(concept)
        cached = cache.get(concept)
        if cached is not None and cached[0] == version:
            graphs[concept] = cached[1]
            continue
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
            codes = codes_all[kb.record_active_flags()[rids_all]]
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
        cache[concept] = (version, graphs[concept])
    return graphs


def build_concept_graph(kb: KnowledgeBase, concept: str) -> ConceptGraph:
    """Build the trigger graph for one concept from KB provenance."""
    return build_concept_graphs(kb, (concept,))[concept]
