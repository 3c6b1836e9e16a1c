"""Tests for the four §5.3 baseline cleaners."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import (
    MutualExclusionCleaner,
    PRDualRankCleaner,
    RWRankCleaner,
    TypeCheckingCleaner,
)
from repro.cleaning.baselines.rw_rank import learn_relative_threshold
from repro.concepts import MutualExclusionIndex
from repro.config import LabelingConfig, SimilarityConfig
from repro.corpus.corpus import Corpus
from repro.corpus.sentence import Sentence
from repro.extraction import SemanticIterativeExtractor
from repro.kb import IsAPair, KnowledgeBase, RollbackEngine
from repro.labeling import DPLabel, EvidenceIndex, SeedLabel
from repro.labeling.rules import SeedLabelSet
from repro.nlp import EntityType, SimulatedNER

from .oracle import loop_dual_scores


def _sentence(sid, concepts, instances):
    return Sentence(sid=sid, surface=f"s{sid}", concepts=concepts,
                    instances=instances)


def _extraction():
    sentences = [
        _sentence(0, ("animal",), ("dog", "cat", "chicken")),
        _sentence(1, ("animal",), ("dog", "cat", "chicken")),
        _sentence(2, ("animal",), ("dog", "horse")),
        _sentence(3, ("food",), ("pork", "beef", "rice")),
        _sentence(4, ("food",), ("pork", "beef", "noodle")),
        _sentence(5, ("city",), ("new york", "boston")),
        _sentence(6, ("city",), ("new york", "tokyo")),
        _sentence(7, ("animal", "food"), ("pork", "beef", "chicken")),
        _sentence(8, ("animal", "plant"), ("new york", "dog")),
    ]
    return SemanticIterativeExtractor().run(Corpus(tuple(sentences)))


def _similarity_config():
    return SimilarityConfig(
        exclusive_threshold=0.4, similar_threshold=0.5, min_core_size=1
    )


class TestMutualExclusionCleaner:
    def test_removes_weaker_side(self):
        result = _extraction()
        cleaner = MutualExclusionCleaner(
            lambda kb: MutualExclusionIndex(kb, _similarity_config())
        )
        report = cleaner.clean(result.kb, result.corpus)
        # pork: 2 sentences under food vs 1 under animal → animal side dies
        assert IsAPair("animal", "pork") in report.removed_pairs
        assert result.kb.has_instance("food", "pork")
        # new york: 2 under city vs 1 under animal
        assert IsAPair("animal", "new york") in report.removed_pairs
        assert result.kb.has_instance("city", "new york")

    def test_keeps_unambiguous_instances(self):
        result = _extraction()
        MutualExclusionCleaner(
            lambda kb: MutualExclusionIndex(kb, _similarity_config())
        ).clean(result.kb, result.corpus)
        assert result.kb.has_instance("animal", "dog")
        assert result.kb.has_instance("food", "rice")


class TestTypeCheckingCleaner:
    def _ner(self, accuracy=1.0):
        gazetteer = {
            "dog": EntityType.MISC, "cat": EntityType.MISC,
            "chicken": EntityType.MISC, "horse": EntityType.MISC,
            "pork": EntityType.MISC, "beef": EntityType.MISC,
            "rice": EntityType.MISC, "noodle": EntityType.MISC,
            "new york": EntityType.LOCATION, "boston": EntityType.LOCATION,
            "tokyo": EntityType.LOCATION,
        }
        return SimulatedNER(gazetteer, accuracy=accuracy)

    def test_misc_concepts_left_alone(self):
        # animal expects MISC → the checker has nothing to contradict, so
        # pork (MISC) survives: the structural low recall of TCh.
        result = _extraction()
        TypeCheckingCleaner(self._ner()).clean(result.kb, result.corpus)
        assert result.kb.has_instance("animal", "pork")

    def test_cross_type_error_caught_in_named_concept(self):
        # An ORGANIZATION-typed instance under the LOCATION-typed city
        # concept is the kind of drift a type checker can see.  (A MISC
        # tag would mean "entity not recognised" and is never evidence.)
        result = _extraction()
        kb = result.kb
        gazetteer = dict(self._ner()._gazetteer)
        gazetteer["acme corp"] = EntityType.ORGANIZATION
        ner = SimulatedNER(gazetteer, accuracy=1.0)
        trigger = IsAPair("city", "new york")
        kb.add_extraction(
            100, "city", ("acme corp", "new york"), triggers=(trigger,),
            iteration=2,
        )
        report = TypeCheckingCleaner(ner).clean(kb, result.corpus)
        assert IsAPair("city", "acme corp") in report.removed_pairs
        assert kb.has_instance("city", "boston")

    def test_misc_tagged_instance_never_flagged(self):
        result = _extraction()
        kb = result.kb
        trigger = IsAPair("city", "new york")
        kb.add_extraction(
            100, "city", ("dog", "new york"), triggers=(trigger,), iteration=2
        )
        report = TypeCheckingCleaner(self._ner()).clean(kb, result.corpus)
        assert IsAPair("city", "dog") not in report.removed_pairs

    def test_expected_type_vote(self):
        result = _extraction()
        cleaner = TypeCheckingCleaner(self._ner())
        assert cleaner.expected_type(result.kb, "city") is EntityType.LOCATION
        assert cleaner.expected_type(result.kb, "animal") is EntityType.MISC
        assert cleaner.expected_type(result.kb, "ghost") is None

    def test_bad_agreement_bound(self):
        with pytest.raises(ValueError):
            TypeCheckingCleaner(self._ner(), min_agreement=0.0)


class TestThresholdLearning:
    def test_learns_separating_multiplier(self):
        scored = {
            "animal": {"dog": 0.4, "cat": 0.4, "junk1": 0.001, "junk2": 0.002},
        }
        seeds = SeedLabelSet()
        seeds.add(SeedLabel("animal", "dog", DPLabel.NON_DP))
        seeds.add(SeedLabel("animal", "junk1", DPLabel.ACCIDENTAL))
        multiplier = learn_relative_threshold(scored, seeds)
        # dog's relative score is 1.6, junk's is 0.004
        assert 0.004 < multiplier < 1.6

    def test_no_seeds_default(self):
        assert learn_relative_threshold({}, SeedLabelSet()) == 0.5


class TestRankingCleaners:
    def _seeds(self):
        seeds = SeedLabelSet()
        seeds.add(SeedLabel("animal", "dog", DPLabel.NON_DP))
        seeds.add(SeedLabel("animal", "cat", DPLabel.NON_DP))
        seeds.add(SeedLabel("animal", "new york", DPLabel.ACCIDENTAL))
        return seeds

    def test_rw_rank_removes_low_scores(self):
        result = _extraction()
        report = RWRankCleaner(self._seeds()).clean(result.kb, result.corpus)
        assert IsAPair("animal", "new york") in report.removed_pairs
        assert result.kb.has_instance("animal", "dog")

    def test_prdualrank_runs_and_keeps_seed_pairs(self):
        result = _extraction()
        evidence = EvidenceIndex(
            result.kb, LabelingConfig(evidence_threshold_k=1)
        )
        report = PRDualRankCleaner(self._seeds(), evidence).clean(
            result.kb, result.corpus
        )
        # evidenced core pairs must survive the threshold
        assert result.kb.has_instance("animal", "dog")
        assert result.kb.has_instance("food", "pork")
        assert report.method == "prdualrank"

    def test_prdualrank_validation(self):
        result = _extraction()
        evidence = EvidenceIndex(result.kb)
        with pytest.raises(ValueError):
            PRDualRankCleaner(self._seeds(), evidence, iterations=0)


_CONCEPTS = ("animal", "food", "city")
_INSTANCES = tuple(f"i{k}" for k in range(8))


class _Evidence:
    """The one ``EvidenceIndex`` read PRDual-Rank makes, from a table."""

    def __init__(self, correct: dict[str, frozenset[str]]) -> None:
        self._correct = correct

    def evidenced_correct(self, concept: str) -> frozenset[str]:
        return self._correct.get(concept, frozenset())


@st.composite
def _propagation_cases(draw):
    """A small KB with every kind of link PRDual-Rank must score.

    Records chain through one to three triggers; rollbacks leave
    inactive records and dead triggers behind, force-removals leave
    linked pairs that are no longer alive, re-extraction restarts some
    of them, and the seeds include pairs that are not in the KB.
    """
    kb = KnowledgeBase()
    sid = 0
    for _ in range(draw(st.integers(3, 14))):
        concept = draw(st.sampled_from(_CONCEPTS))
        names = draw(st.lists(
            st.sampled_from(_INSTANCES), min_size=1, max_size=4, unique=True
        ))
        alive = sorted(kb.instance_view(concept))
        triggers = ()
        if alive and draw(st.booleans()):
            triggers = tuple(
                IsAPair(concept, name)
                for name in draw(st.lists(
                    st.sampled_from(alive), min_size=1, max_size=3,
                    unique=True,
                ))
            )
        iteration = 2 if triggers else draw(st.integers(1, 2))
        kb.add_extraction(sid, concept, names, triggers=triggers,
                          iteration=iteration)
        sid += 1
        engine = RollbackEngine(kb)
        action = draw(st.sampled_from(("none", "records", "pair", "pair",
                                       "force")))
        active = [record.rid for record in kb.records()]
        pairs = sorted(kb.pairs())
        if action == "records" and active:
            engine.rollback_records(draw(st.lists(
                st.sampled_from(active), min_size=1, max_size=2, unique=True
            )))
        elif action == "pair" and pairs:
            engine.rollback_pair(draw(st.sampled_from(pairs)))
        elif action == "force" and pairs:
            kb.remove_pair(draw(st.sampled_from(pairs)))
    correct = {
        concept: frozenset(draw(st.lists(
            st.sampled_from(_INSTANCES + ("ghost",)), max_size=4
        )))
        for concept in _CONCEPTS
    }
    return kb, correct, draw(st.sampled_from((1, 8)))


class TestPRDualRankMatchesLoopOracle:
    """Vectorised propagation equals the per-element sums bit for bit."""

    @given(_propagation_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_score_is_identical(self, case):
        kb, correct, iterations = case
        cleaner = PRDualRankCleaner(
            SeedLabelSet(), _Evidence(correct), iterations=iterations
        )
        scores = cleaner._dual_scores(kb)
        expected = loop_dual_scores(cleaner, kb)
        assert list(scores) == list(expected)
        assert all(scores[pair] == expected[pair] for pair in expected)

    def test_extraction_scores_are_identical(self):
        result = _extraction()
        evidence = EvidenceIndex(
            result.kb, LabelingConfig(evidence_threshold_k=1)
        )
        cleaner = PRDualRankCleaner(SeedLabelSet(), evidence)
        assert cleaner._dual_scores(result.kb) == loop_dual_scores(
            cleaner, result.kb
        )
