"""The ranker protocol (§5.2 of the paper)."""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod

from ..kb.store import KnowledgeBase
from ..runtime.context import NULL_CONTEXT, RunContext

__all__ = ["Ranker"]


class Ranker(ABC):
    """Assigns each instance of a concept a goodness score.

    Scores are comparable within a concept; all three paper models
    normalise to a probability distribution over the concept's instances.

    :meth:`score_all` keeps a **mutation-versioned cache**: per knowledge
    base (weakly referenced) it remembers each concept's scores together
    with the KB's :meth:`~repro.kb.store.KnowledgeBase.concept_version` at
    scoring time, and re-scores only the concepts mutated since.  All
    ranking models are per-concept local — a concept's scores depend only
    on that concept's pairs and records — which is what makes the
    per-concept dirty tracking sound.  :meth:`score` is the uncached
    path.
    """

    #: instrumentation context; instances may override (e.g. via a
    #: constructor ``context=`` parameter).  Observation only — never
    #: changes scores.
    context: RunContext = NULL_CONTEXT

    def __init__(self) -> None:
        # kb → {concept: (concept_version, scores)}
        self._score_caches = weakref.WeakKeyDictionary()

    @abstractmethod
    def score(self, kb: KnowledgeBase, concept: str) -> dict[str, float]:
        """Score every alive instance of ``concept``."""

    def _score_batch(
        self, kb: KnowledgeBase, concepts: list[str]
    ) -> dict[str, dict[str, float]]:
        """Score a batch of concepts (hook for single-pass implementations)."""
        return {concept: self.score(kb, concept) for concept in concepts}

    def score_all(
        self, kb: KnowledgeBase, concepts: list[str] | None = None
    ) -> dict[str, dict[str, float]]:
        """Score several concepts (all KB concepts by default).

        Only concepts the KB reports as mutated since their last scoring
        are recomputed.
        """
        names = list(concepts) if concepts is not None else kb.concepts()
        cache = self._score_caches.setdefault(kb, {})
        stale = []
        versions = {}
        for concept in names:
            version = kb.concept_version(concept)
            entry = cache.get(concept)
            if entry is None or entry[0] != version:
                stale.append(concept)
                versions[concept] = version
        ctx = self.context
        ctx.count("rank.cache.hit", len(names) - len(stale))
        ctx.count("rank.cache.miss", len(stale))
        if stale:
            fresh = self._score_batch(kb, stale)
            for concept in stale:
                cache[concept] = (versions[concept], fresh[concept])
        return {concept: cache[concept][1] for concept in names}

