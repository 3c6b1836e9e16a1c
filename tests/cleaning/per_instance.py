"""Per-concept references for the detector's inputs.

Production builds the feature matrices and the seed labels of all
analysed concepts in one array pass each
(:meth:`repro.features.FeatureExtractor.feature_matrices`,
:meth:`repro.labeling.SeedLabeler.label_all`).  These are the loops they
replaced, one concept and one instance at a time, over the KB's
per-instance reads (records, sub-instance counts, the alive-concept index)
rather than its id-indexed arrays; the equivalence suites pin production
bit-identical to them.  They also keep the paper-verbatim modes no
production path uses: Eq. 1's cosine for f1 (``f1_mode="cosine"``) and
RULE 3 as worded (``rule3_mode="strict"``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from repro.concepts import MutualExclusionIndex
from repro.config import LabelingConfig
from repro.features import ConceptMatrix, FeatureVector
from repro.kb import IsAPair, KnowledgeBase
from repro.labeling import DPLabel, SeedLabel, SeedLabelSet

__all__ = [
    "cosine_counts",
    "core_counts",
    "PerConceptFeatureExtractor",
    "PerInstanceEvidence",
    "PerConceptSeedLabeler",
]


def cosine_counts(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine similarity of two sparse count vectors (Eq. 1)."""
    if not a or not b:
        return 0.0
    dot = sum(value * b.get(key, 0.0) for key, value in a.items())
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    return dot / (norm_a * norm_b)


def core_counts(kb: KnowledgeBase, concept: str) -> dict[str, int]:
    """Iteration-1 evidence of every alive instance, by record walk."""
    return {
        instance: sum(
            record.iteration == 1
            for record in kb.records_for_pair(IsAPair(concept, instance))
        )
        for instance in kb.instances_of(concept)
    }


class PerConceptFeatureExtractor:
    """The four features, one concept at a time.

    ``feature_matrix`` is the per-concept array pass with f2 as a loop over
    the concepts sharing an instance; ``extract`` is the per-instance
    definition (whose f4 sums in sub-instance order, so it agrees with the
    matrix to rounding only).
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        exclusion: MutualExclusionIndex,
        scores: Mapping[str, Mapping[str, float]],
        f1_mode: str = "core_mass",
    ) -> None:
        if f1_mode not in ("core_mass", "cosine"):
            raise ValueError(f"unknown f1_mode: {f1_mode!r}")
        self._kb = kb
        self._exclusion = exclusion
        self._scores = scores
        self._f1_mode = f1_mode

    def _core(self, concept: str) -> dict[str, int]:
        counts = core_counts(self._kb, concept)
        return {
            instance: count
            for instance, count in counts.items()
            if self._kb.first_iteration(IsAPair(concept, instance)) == 1
            and count > 0
        }

    def extract(self, concept: str, instance: str) -> FeatureVector:
        kb = self._kb
        core = self._core(concept)
        scores = self._scores.get(concept, {})
        subs = kb.sub_instance_counts(concept, instance)
        if subs:
            total = sum(subs.values())
            on_core = sum(c for name, c in subs.items() if name in core)
            f4 = sum(scores.get(name, 0.0) for name in subs) / len(subs)
            if self._f1_mode == "cosine":
                f1 = cosine_counts(subs, core)
            else:
                f1 = on_core / total if total else 0.0
        else:
            f1 = f4 = 0.0
        f2 = float(len(self._exclusion.exclusive_concepts_containing(
            kb, concept, instance
        )))
        return FeatureVector(
            concept, instance, f1, f2, float(scores.get(instance, 0.0)), f4
        )

    def feature_matrix(self, concept: str) -> ConceptMatrix:
        kb = self._kb
        names = tuple(sorted(kb.instances_of(concept)))
        if self._f1_mode == "cosine":
            x = np.array(
                [self.extract(concept, name).as_tuple() for name in names],
                dtype=float,
            ).reshape(len(names), 4)
            return ConceptMatrix(concept, names, x)
        scores = self._scores.get(concept, {})
        core = self._core(concept)
        ids = kb.instance_id_map(concept)
        num_ids = len(ids)
        score_by_id = np.zeros(num_ids)
        core_mask = np.zeros(num_ids)
        for name, i in ids.items():
            value = scores.get(name)
            if value:
                score_by_id[i] = value
            if name in core:
                core_mask[i] = 1.0
        codes, rids = kb.edge_arrays(concept)
        active = np.frombuffer(kb.record_active_flags(), dtype=bool)
        codes = codes[active[rids]]
        sources = codes >> 32
        total = np.bincount(sources, minlength=num_ids).astype(float)
        on_core = np.bincount(
            sources, weights=core_mask[codes & 0xFFFFFFFF], minlength=num_ids
        )
        uniq = np.unique(codes)
        distinct = np.bincount(uniq >> 32, minlength=num_ids).astype(float)
        score_sum = np.bincount(
            uniq >> 32,
            weights=score_by_id[uniq & 0xFFFFFFFF],
            minlength=num_ids,
        )
        rows = np.array([ids[name] for name in names], dtype=np.int64)
        x = np.zeros((len(names), 4), dtype=float)
        row_total = total[rows]
        nonzero = row_total > 0
        x[nonzero, 0] = on_core[rows][nonzero] / row_total[nonzero]
        row_of = {name: i for i, name in enumerate(names)}
        sharing = set().union(
            *(kb.concepts_with_instance(name) for name in names)
        )
        for other in sharing:
            if other == concept or not self._exclusion.exclusive(
                concept, other
            ):
                continue
            for name in row_of.keys() & kb.instances_of(other):
                x[row_of[name], 1] += 1.0
        x[:, 2] = score_by_id[rows]
        row_distinct = distinct[rows]
        nonzero = row_distinct > 0
        x[nonzero, 3] = score_sum[rows][nonzero] / row_distinct[nonzero]
        return ConceptMatrix(concept, names, x)


class PerInstanceEvidence:
    """Evidenced correct / incorrect, one (concept, instance) at a time."""

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
        self._by_concept: dict[str, set[str]] = {}
        for pair in self._verified:
            self._by_concept.setdefault(pair.concept, set()).add(pair.instance)
        # Built once per concept: the KB must not change under a reference.
        self._correct: dict[str, frozenset[str]] = {}

    def verified_instances(self, concept: str) -> frozenset[str]:
        return frozenset(self._by_concept.get(concept, ()))

    def evidenced_correct(self, concept: str) -> frozenset[str]:
        if concept not in self._correct:
            threshold = self._config.evidence_threshold_k
            counts = core_counts(self._kb, concept)
            verified = self.verified_instances(concept)
            self._correct[concept] = frozenset(
                instance
                for instance in self._kb.instances_of(concept)
                if counts[instance] > threshold or instance in verified
            )
        return self._correct[concept]

    def is_evidenced_correct(self, concept: str, instance: str) -> bool:
        """Verified source, or frequent (> k sentences) in iteration 1."""
        return (
            instance in self.evidenced_correct(concept)
            or IsAPair(concept, instance) in self._verified
        )

    def is_evidenced_incorrect(self, concept: str, instance: str) -> bool:
        """One late, accidental extraction of another exclusive concept's
        evidenced instance."""
        pair = IsAPair(concept, instance)
        if pair not in self._kb:
            return False
        if self._kb.count(pair) != 1 or self._kb.first_iteration(pair) <= 1:
            return False
        return any(
            other != concept
            and self._exclusion.exclusive(concept, other)
            and self.is_evidenced_correct(other, instance)
            for other in self._kb.concepts_with_instance(instance)
        )


class PerConceptSeedLabeler:
    """RULES 1–3, one concept and one instance at a time.

    ``rule3_mode="tolerant"`` is production's reading; ``"strict"`` is the
    paper's wording (every sub-instance must itself be evidenced correct).
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        exclusion: MutualExclusionIndex,
        evidence: PerInstanceEvidence,
        rule3_mode: str = "tolerant",
    ) -> None:
        if rule3_mode not in ("strict", "tolerant"):
            raise ValueError(f"unknown rule3_mode: {rule3_mode!r}")
        self._kb = kb
        self._exclusion = exclusion
        self._evidence = evidence
        self._rule3_mode = rule3_mode

    def label_concept(self, concept: str) -> list[SeedLabel]:
        correct = self._evidence.evidenced_correct(concept)
        core = core_counts(self._kb, concept)
        labels = []
        for instance in sorted(self._kb.instances_of(concept)):
            label = self._classify(concept, instance, correct, core)
            if label is not None:
                labels.append(SeedLabel(concept, instance, label))
        return labels

    def label_all(self, concepts: list[str] | None = None) -> SeedLabelSet:
        result = SeedLabelSet()
        names = concepts if concepts is not None else self._kb.concepts()
        for concept in names:
            for label in self.label_concept(concept):
                result.add(label)
        return result

    def _classify(
        self,
        concept: str,
        instance: str,
        correct: frozenset[str],
        core: dict[str, int],
    ) -> DPLabel | None:
        if self._evidence.is_evidenced_incorrect(concept, instance):
            return DPLabel.ACCIDENTAL  # RULE 2
        if instance not in correct:
            return None
        subs = self._kb.sub_instance_counts(concept, instance)
        verified = self._evidence.verified_instances(concept)
        for sub in subs:
            if sub in correct or sub in verified or core.get(sub, 0) > 0:
                continue
            for other in self._kb.concepts_with_instance(sub):
                if (
                    other != concept
                    and self._exclusion.exclusive(concept, other)
                    and self._evidence.is_evidenced_correct(other, sub)
                ):
                    return DPLabel.INTENTIONAL  # RULE 1
        if self._rule3_mode == "tolerant" or all(
            sub in correct for sub in subs
        ):
            return DPLabel.NON_DP  # RULE 3
        return None
