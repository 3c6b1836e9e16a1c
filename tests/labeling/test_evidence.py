"""Tests for evidenced correct / incorrect instances.

Evidenced incorrect has no query of its own: it is RULE 2, so an
instance is evidenced incorrect exactly when the seed labeler calls it an
Accidental DP.
"""

from __future__ import annotations

from repro.concepts import MutualExclusionIndex
from repro.config import LabelingConfig, SimilarityConfig
from repro.kb import IsAPair, KnowledgeBase
from repro.labeling import DPLabel, EvidenceIndex, SeedLabeler


def _kb():
    kb = KnowledgeBase()
    for sid in range(4):  # france: 4 core sentences
        kb.add_extraction(sid, "country", ("france",), iteration=1)
    kb.add_extraction(4, "country", ("tuvalu",), iteration=1)  # rare core
    for sid in range(5, 10):
        kb.add_extraction(sid, "city", ("new york",), iteration=1)
    france = IsAPair("country", "france")
    # new york accidentally extracted once under country, in iteration 2
    kb.add_extraction(
        10, "country", ("new york", "france"), triggers=(france,), iteration=2
    )
    return kb


def _exclusion(kb):
    return MutualExclusionIndex(
        kb,
        SimilarityConfig(
            exclusive_threshold=0.05, similar_threshold=0.5, min_core_size=1
        ),
    )


def _evidence(kb, k=3, verified=()):
    return EvidenceIndex(
        kb, LabelingConfig(evidence_threshold_k=k), verified=verified
    )


def _correct(kb, concept, instance, **kwargs):
    return instance in _evidence(kb, **kwargs).evidenced_correct(concept)


def _incorrect(kb, concept, instance):
    seeds = SeedLabeler(kb, _exclusion(kb), _evidence(kb)).label_all()
    return any(
        seed.instance == instance and seed.label is DPLabel.ACCIDENTAL
        for seed in seeds.labels_for(concept)
    )


class TestEvidencedCorrect:
    def test_frequent_core_is_evidenced(self):
        assert _correct(_kb(), "country", "france")

    def test_rare_core_is_not(self):
        assert not _correct(_kb(), "country", "tuvalu")

    def test_verified_source_counts(self):
        assert _correct(
            _kb(), "country", "tuvalu",
            verified=[IsAPair("country", "tuvalu")],
        )

    def test_threshold_semantics_strictly_greater(self):
        assert not _correct(_kb(), "country", "france", k=4)

    def test_evidenced_correct_set(self):
        evidence = _evidence(_kb())
        assert evidence.evidenced_correct("city") == frozenset({"new york"})


class TestEvidencedIncorrect:
    def test_new_york_under_country(self):
        assert _incorrect(_kb(), "country", "new york")

    def test_core_pairs_never_incorrect(self):
        assert not _incorrect(_kb(), "country", "tuvalu")

    def test_requires_single_count(self):
        kb = _kb()
        france = IsAPair("country", "france")
        kb.add_extraction(
            11, "country", ("new york", "france"), triggers=(france,),
            iteration=3,
        )
        assert not _incorrect(kb, "country", "new york")

    def test_requires_exclusive_home(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "country", ("france",), iteration=1)
        france = IsAPair("country", "france")
        kb.add_extraction(
            1, "country", ("atlantis", "france"), triggers=(france,),
            iteration=2,
        )
        # atlantis exists nowhere else, so there is no contrary evidence
        assert not _incorrect(kb, "country", "atlantis")

    def test_missing_pair(self):
        assert not _incorrect(_kb(), "country", "ghost")

    def test_evidenced_incorrect_set(self):
        kb = _kb()
        assert {
            instance
            for instance in kb.instances_of("country")
            if _incorrect(kb, "country", instance)
        } == {"new york"}
