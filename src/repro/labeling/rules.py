"""Heuristic seed-labelling rules (§3.2.3).

* **RULE 1** — ``e`` is an evidenced correct instance of ``C`` but some of
  its sub-instances are evidenced correct instances of a concept mutually
  exclusive with ``C``  →  Intentional DP (*chicken* under *animal* whose
  sub-instances *pork*, *beef* are evidenced foods).
* **RULE 2** — ``e`` is an evidenced incorrect instance of ``C``
  →  Accidental DP (*New York* under *country*).
* **RULE 3** — ``e`` and all its sub-instances are evidenced correct
  instances of ``C``  →  non-DP.

The rules are strict by design: they label only a small fraction of the
instances, but with near-perfect precision (Fig. 5b).  RULE 3 is applied
in its sparse-evidence reading (see :class:`SeedLabeler`); the paper's
wording lives on as a reference in ``tests/cleaning/per_instance.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..concepts.exclusion import MutualExclusionIndex
from ..kb.store import KnowledgeBase
from .evidence import EvidenceIndex
from .labels import DPLabel, SeedLabel

__all__ = ["SeedLabeler", "SeedLabelSet"]

#: Label codes of the array pass (0: unlabelled).
_LABELS = (None, DPLabel.INTENTIONAL, DPLabel.ACCIDENTAL, DPLabel.NON_DP)


@dataclass
class SeedLabelSet:
    """Seed labels grouped by concept."""

    by_concept: dict[str, list[SeedLabel]] = field(default_factory=dict)

    def add(self, label: SeedLabel) -> None:
        """Store one seed."""
        self.by_concept.setdefault(label.concept, []).append(label)

    def labels_for(self, concept: str) -> list[SeedLabel]:
        """Seeds of one concept."""
        return self.by_concept.get(concept, [])

    def all_labels(self) -> list[SeedLabel]:
        """Every seed across concepts."""
        return [
            label
            for labels in self.by_concept.values()
            for label in labels
        ]

    def counts(self) -> dict[DPLabel, int]:
        """Seeds per class."""
        result: dict[DPLabel, int] = {}
        for label in self.all_labels():
            result[label.label] = result.get(label.label, 0) + 1
        return result

    def __len__(self) -> int:
        return sum(len(labels) for labels in self.by_concept.values())


class SeedLabeler:
    """Applies RULES 1–3 over a knowledge base.

    RULE 3 is read for sparse evidence: the instance is evidenced correct
    and *no* sub-instance shows contrary (exclusive-concept) evidence.  The
    paper's wording — every sub-instance must itself be evidenced correct —
    presumes web-scale evidence, where popular triggers qualify; at our
    corpus scale they almost never do, which starves the training set of
    exactly the high-score non-DPs the detector must learn.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        exclusion: MutualExclusionIndex,
        evidence: EvidenceIndex,
    ) -> None:
        self._kb = kb
        self._exclusion = exclusion
        self._evidence = evidence

    def label_all(self, concepts: Sequence[str] | None = None) -> SeedLabelSet:
        """Label seeds for many concepts (all KB concepts by default).

        One pass over the concepts' instance ids.  An id is *contradicted*
        when its instance is evidenced correct under a concept mutually
        exclusive with its own.  Then, per alive instance in sorted order:

        * RULE 2 — extracted once, after iteration 1, and contradicted:
          evidenced incorrect, an Accidental DP;
        * RULE 1 — evidenced correct, and some active record it triggered
          holds a contradicted sub-instance that is neither evidenced
          correct, verified nor core here (a benign trigger may co-occur
          with a polysemous bridge: dog triggering chicken must not make
          dog an Intentional DP): an Intentional DP;
        * RULE 3 — any other evidenced-correct instance: non-DP.
        """
        kb = self._kb
        evidence = self._evidence
        names = list(
            dict.fromkeys(concepts if concepts is not None else kb.concepts())
        )
        joined = self._exclusion.exclusive_memberships(kb, names)
        correct = {
            concept: evidence.correct_mask(concept)
            for concept in dict.fromkeys(joined.members + names)
        }
        member_correct = _laid_out((correct[c] for c in joined.members), bool)
        contradicted = np.bincount(
            joined.query,
            weights=member_correct[joined.member],
            minlength=joined.query_size,
        ) > 0
        # The asked concepts' pair state, laid out like the query space.
        states = [kb.concept_state(concept) for concept in names]
        here = _laid_out((correct[c] for c in names), bool)
        verified = _laid_out(map(evidence.verified_mask, names), bool)
        alive = _laid_out((state.alive for state in states), bool)
        count = _laid_out((state.count for state in states), np.int64)
        first = _laid_out(
            (state.first_iteration for state in states), np.int64
        )
        core = _laid_out((state.core_count for state in states), np.int64)
        codes = kb.active_edges(names, joined.query_offsets)
        targets = codes & 0xFFFFFFFF
        incriminating = (
            contradicted[targets]
            & ~here[targets]
            & ~verified[targets]
            & (core[targets] == 0)
        )
        rule1 = np.zeros(joined.query_size, dtype=bool)
        rule1[codes[incriminating] >> 32] = True
        accidental = alive & (count == 1) & (first > 1) & contradicted
        label = np.where(rule1, 1, 3) * (here & ~accidental)
        label[accidental] = 2
        result = SeedLabelSet()
        for concept, state in zip(names, states):
            labels = label[state.ids + joined.query_offsets[concept]]
            rows = np.flatnonzero(labels)
            if len(rows):
                result.by_concept[concept] = [
                    SeedLabel(concept, state.names[row], _LABELS[code])
                    for row, code in zip(rows.tolist(), labels[rows].tolist())
                ]
        return result


def _laid_out(parts: Iterable[np.ndarray], dtype) -> np.ndarray:
    """Per-concept arrays end to end (an empty array when there are none)."""
    return np.concatenate([np.zeros(0, dtype)] + list(parts))
