"""Tests for evidenced correct / incorrect instances."""

from __future__ import annotations

from repro.concepts import MutualExclusionIndex
from repro.config import LabelingConfig, SimilarityConfig
from repro.kb import IsAPair, KnowledgeBase
from repro.labeling import EvidenceIndex


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


def _evidence(kb, k=3, verified=()):
    exclusion = MutualExclusionIndex(
        kb,
        SimilarityConfig(
            exclusive_threshold=0.05, similar_threshold=0.5, min_core_size=1
        ),
    )
    return EvidenceIndex(
        kb, exclusion, LabelingConfig(evidence_threshold_k=k),
        verified=verified,
    )


class TestEvidencedCorrect:
    def test_frequent_core_is_evidenced(self):
        evidence = _evidence(_kb())
        assert evidence.is_evidenced_correct("country", "france")

    def test_rare_core_is_not(self):
        evidence = _evidence(_kb())
        assert not evidence.is_evidenced_correct("country", "tuvalu")

    def test_verified_source_counts(self):
        evidence = _evidence(
            _kb(), verified=[IsAPair("country", "tuvalu")]
        )
        assert evidence.is_evidenced_correct("country", "tuvalu")

    def test_threshold_semantics_strictly_greater(self):
        evidence = _evidence(_kb(), k=4)
        assert not evidence.is_evidenced_correct("country", "france")

    def test_evidenced_correct_set(self):
        evidence = _evidence(_kb())
        assert evidence.evidenced_correct("city") == frozenset({"new york"})


class TestEvidencedIncorrect:
    def test_new_york_under_country(self):
        evidence = _evidence(_kb())
        assert evidence.is_evidenced_incorrect("country", "new york")

    def test_core_pairs_never_incorrect(self):
        evidence = _evidence(_kb())
        assert not evidence.is_evidenced_incorrect("country", "tuvalu")

    def test_requires_single_count(self):
        kb = _kb()
        france = IsAPair("country", "france")
        kb.add_extraction(
            11, "country", ("new york", "france"), triggers=(france,),
            iteration=3,
        )
        evidence = _evidence(kb)
        assert not evidence.is_evidenced_incorrect("country", "new york")

    def test_requires_exclusive_home(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "country", ("france",), iteration=1)
        france = IsAPair("country", "france")
        kb.add_extraction(
            1, "country", ("atlantis", "france"), triggers=(france,),
            iteration=2,
        )
        evidence = _evidence(kb)
        # atlantis exists nowhere else, so there is no contrary evidence
        assert not evidence.is_evidenced_incorrect("country", "atlantis")

    def test_missing_pair(self):
        evidence = _evidence(_kb())
        assert not evidence.is_evidenced_incorrect("country", "ghost")

    def test_evidenced_incorrect_set(self):
        kb = _kb()
        evidence = _evidence(kb)
        assert {
            instance
            for instance in kb.instances_of("country")
            if evidence.is_evidenced_incorrect("country", instance)
        } == {"new york"}
