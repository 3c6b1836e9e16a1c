"""Evidenced correct / incorrect instances (§3.2.2).

* **Evidenced correct** for ``C``: the pair came from a verified source
  (optional, e.g. a Wikipedia-like sample) or was extracted from more than
  ``k`` distinct sentences in the first iteration.
* **Evidenced incorrect** for ``C``: the instance was extracted for ``C``
  exactly once, in a later iteration than the first, while being an
  evidenced *correct* instance of some concept mutually exclusive with
  ``C`` (the paper's *New York isA country* case).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..concepts.exclusion import MutualExclusionIndex
from ..config import LabelingConfig
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase

__all__ = ["EvidenceIndex"]

_EMPTY: frozenset[str] = frozenset()


class EvidenceIndex:
    """Answers evidenced-correct / evidenced-incorrect queries."""

    def __init__(
        self,
        kb: KnowledgeBase,
        exclusion: MutualExclusionIndex,
        config: LabelingConfig | None = None,
        verified: Iterable[IsAPair] = (),
    ) -> None:
        self._kb = kb
        self._exclusion = exclusion
        self._config = config or LabelingConfig()
        self._verified = frozenset(verified)
        # concept → verified instances, so the per-instance hot paths test
        # string membership instead of constructing IsAPair keys.
        grouped: dict[str, set[str]] = {}
        for pair in self._verified:
            grouped.setdefault(pair.concept, set()).add(pair.instance)
        self._verified_by_concept: dict[str, frozenset[str]] = {
            concept: frozenset(names) for concept, names in grouped.items()
        }
        self._correct_cache: dict[str, frozenset[str]] = {}

    @property
    def threshold(self) -> int:
        """The evidence threshold ``k``."""
        return self._config.evidence_threshold_k

    @property
    def verified(self) -> frozenset[IsAPair]:
        """Pairs from the verified source (count even when not in the KB)."""
        return self._verified

    def verified_instances(self, concept: str) -> frozenset[str]:
        """Verified instances of one concept (empty set when none)."""
        return self._verified_by_concept.get(concept, _EMPTY)

    def evidenced_correct(self, concept: str) -> frozenset[str]:
        """All evidenced-correct instances of a concept."""
        cached = self._correct_cache.get(concept)
        if cached is not None:
            return cached
        threshold = self._config.evidence_threshold_k
        counts = self._kb.core_counts(concept)
        verified_here = self._verified_by_concept.get(concept, frozenset())
        names = {
            instance
            for instance in self._kb.instances_of(concept)
            if counts.get(instance, 0) > threshold
            or instance in verified_here
        }
        result = frozenset(names)
        self._correct_cache[concept] = result
        return result

    def is_evidenced_correct(self, concept: str, instance: str) -> bool:
        """Verified source, or frequent (> k sentences) in iteration 1."""
        if instance in self.evidenced_correct(concept):
            return True
        # Verified pairs count even when not (or no longer) in the KB.
        verified_here = self._verified_by_concept.get(concept)
        return verified_here is not None and instance in verified_here

    def is_evidenced_incorrect(self, concept: str, instance: str) -> bool:
        """One late, accidental extraction of another exclusive concept's
        evidenced instance."""
        stats = self._kb.instance_stats(concept, instance)
        if stats is None:
            return False
        count, first_iteration = stats
        if count != 1 or first_iteration <= 1:
            return False
        for other in self._kb.iter_concepts_with_instance(instance):
            if other == concept:
                continue
            if not self._exclusion.exclusive(concept, other):
                continue
            if self.is_evidenced_correct(other, instance):
                return True
        return False
