"""Concept similarity from core-pair overlap (§3.2.1).

The similarity between two concepts is the cosine between their *core*
instance sets (iteration-1 extractions):

    Sim(C1, C2) = |Core(C1) ∩ Core(C2)| / sqrt(|Core(C1)| · |Core(C2)|)

An inverted index over core instances finds every concept pair with
non-zero overlap without the quadratic scan the paper's millions of
concepts would forbid; all other pairs have similarity exactly zero.

The snapshot is **incrementally updatable**: :meth:`refresh` diffs the
cores of concepts the KB reports as mutated since the last sync, patches
the inverted index in place, and returns every concept whose similarity
*row* may have changed (the mutated concepts plus all old/new overlap
partners).  A refreshed index answers every query identically to a
from-scratch rebuild — a hypothesis property test asserts it.
"""

from __future__ import annotations

import bisect
import math
import weakref
from collections.abc import Iterator

from ..kb.store import KnowledgeBase

__all__ = ["CoreSimilarity"]


class CoreSimilarity:
    """Core-set cosine similarity over all concepts of a knowledge base."""

    def __init__(self, kb: KnowledgeBase, min_core_size: int = 1) -> None:
        if min_core_size < 1:
            raise ValueError("min_core_size must be >= 1")
        # Weak: caches keyed weakly by KB hold the index (and so this
        # snapshot) as their value, which must not keep the KB alive.
        self._kb = weakref.ref(kb)
        self._min_core_size = min_core_size
        self._kb_version = kb.version
        self._cores: dict[str, frozenset[str]] = {}
        for concept in kb.concepts():
            core = kb.core_instances(concept)
            if len(core) >= min_core_size:
                self._cores[concept] = core
        self._inverted: dict[str, list[str]] = {}
        for concept, core in self._cores.items():
            for instance in core:
                self._inverted.setdefault(instance, []).append(concept)

    def refresh(self) -> frozenset[str]:
        """Re-sync with the KB; return concepts whose rows may have changed.

        Only concepts mutated since the last sync are re-read; for each
        one whose (filtered) core actually changed, the inverted index is
        patched and all overlap partners of the old and new core are
        reported alongside it — ``similarity(a, b)`` can change only if
        ``a`` or ``b`` is in the returned set.
        """
        kb = self._kb()
        if kb is None or kb.version == self._kb_version:
            return frozenset()  # a collected KB can no longer change
        dirty = kb.dirty_concepts_since(self._kb_version)
        self._kb_version = kb.version
        affected: set[str] = set()
        inverted = self._inverted
        for concept in dirty:
            old = self._cores.get(concept, frozenset())
            core = kb.core_instances(concept)
            new = core if len(core) >= self._min_core_size else frozenset()
            if new == old:
                continue
            affected.add(concept)
            # Partners through any old or new core instance: their
            # similarity to ``concept`` changes with the core size even
            # when the shared instances are untouched.
            for instance in old | new:
                posting = inverted.get(instance)
                if posting:
                    affected.update(posting)
            for instance in old - new:
                posting = inverted[instance]
                posting.remove(concept)
                if not posting:
                    del inverted[instance]
            for instance in new - old:
                inverted.setdefault(instance, []).append(concept)
            if new:
                self._cores[concept] = new
            else:
                self._cores.pop(concept, None)
        return frozenset(affected)

    @property
    def concepts(self) -> frozenset[str]:
        """Concepts with a large-enough core to compare."""
        return frozenset(self._cores)

    def core(self, concept: str) -> frozenset[str]:
        """The core instance set used for comparisons (empty if filtered)."""
        return self._cores.get(concept, frozenset())

    def similarity(self, concept_a: str, concept_b: str) -> float:
        """Cosine of the two concepts' core sets (0 when either is absent)."""
        core_a = self._cores.get(concept_a)
        core_b = self._cores.get(concept_b)
        if not core_a or not core_b:
            return 0.0
        overlap = len(core_a & core_b)
        if overlap == 0:
            return 0.0
        return overlap / math.sqrt(len(core_a) * len(core_b))

    def overlapping(self, concept: str) -> dict[str, float]:
        """All concepts with non-zero similarity to ``concept``."""
        core = self._cores.get(concept)
        if not core:
            return {}
        counts: dict[str, int] = {}
        for instance in core:
            for other in self._inverted.get(instance, ()):
                if other != concept:
                    counts[other] = counts.get(other, 0) + 1
        size = len(core)
        return {
            other: overlap / math.sqrt(size * len(self._cores[other]))
            for other, overlap in counts.items()
        }

    def overlapping_pairs(self) -> Iterator[tuple[str, str, float]]:
        """Every unordered concept pair with non-zero similarity.

        Each pair surfaces from both endpoints' rows; emitting only the
        ``concept < other`` ordering deduplicates without tracking an
        O(pairs) seen-set.
        """
        for concept in self._cores:
            for other, value in self.overlapping(concept).items():
                if concept < other:
                    yield concept, other, value

    def similarity_histogram(
        self, bin_edges: list[float]
    ) -> tuple[list[int], int]:
        """Histogram of non-zero pair similarities plus the zero-pair count.

        Returns ``(counts per bin, number_of_zero_similarity_pairs)`` —
        the data behind Fig. 4.
        """
        counts = [0] * (len(bin_edges) - 1)
        nonzero = 0
        for _, _, value in self.overlapping_pairs():
            nonzero += 1
            # bisect_right - 1 is the unique i with edges[i] <= value <
            # edges[i + 1]; values outside [edges[0], edges[-1]) land at
            # -1 or len(counts) and are dropped, as the scan did.
            i = bisect.bisect_right(bin_edges, value) - 1
            if 0 <= i < len(counts):
                counts[i] += 1
        total = len(self._cores)
        all_pairs = total * (total - 1) // 2
        return counts, all_pairs - nonzero
