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
from itertools import compress

import numpy as np

from ..config import LabelingConfig
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase

__all__ = ["EvidenceIndex"]


class EvidenceIndex:
    """Answers evidenced-correct queries, per concept or per instance id.

    Evidenced incorrect is one of the labelling rules' array passes
    (:class:`~repro.labeling.rules.SeedLabeler`).
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        config: LabelingConfig | None = None,
        verified: Iterable[IsAPair] = (),
    ) -> None:
        self._kb = kb
        self._config = config or LabelingConfig()
        self._verified = frozenset(verified)
        # concept → verified instances, so the id masks look names up in
        # one concept's id map.
        grouped: dict[str, list[str]] = {}
        for pair in self._verified:
            grouped.setdefault(pair.concept, []).append(pair.instance)
        self._verified_by_concept = grouped

    @property
    def threshold(self) -> int:
        """The evidence threshold ``k``."""
        return self._config.evidence_threshold_k

    @property
    def verified(self) -> frozenset[IsAPair]:
        """Pairs from the verified source (count even when not in the KB)."""
        return self._verified

    def verified_mask(self, concept: str) -> np.ndarray:
        """Which of a concept's instance ids are verified (alive or not)."""
        ids = self._kb.instance_id_map(concept)
        mask = np.zeros(len(ids), dtype=bool)
        mask[[
            ids[name]
            for name in self._verified_by_concept.get(concept, ())
            if name in ids
        ]] = True
        return mask

    def correct_mask(self, concept: str) -> np.ndarray:
        """Which of a concept's instance ids are evidenced correct.

        Alive, and verified or frequent (> k sentences) in iteration 1.
        """
        state = self._kb.concept_state(concept)
        return state.alive & (
            (state.core_count > self._config.evidence_threshold_k)
            | self.verified_mask(concept)
        )

    def evidenced_correct(self, concept: str) -> frozenset[str]:
        """All evidenced-correct instances of a concept."""
        state = self._kb.concept_state(concept)
        return frozenset(
            compress(state.names, self.correct_mask(concept)[state.ids])
        )
