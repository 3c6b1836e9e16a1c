"""Tests for the §5 evaluation metrics."""

from __future__ import annotations

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.sentence import Sentence, SentenceKind, SentenceTruth
from repro.evaluation import (
    GroundTruth,
    cleaning_metrics,
    detection_metrics,
    precision_at_k,
    sentence_check_metrics,
)
from repro.cleaning.intentional import SentenceCheck
from repro.kb import KnowledgeBase
from repro.labeling import DPLabel
from repro.nlp.types import EntityType
from repro.world.schema import ConceptSpec, Domain, InstanceSpec, Sense
from repro.world.taxonomy import World


def _world():
    domains = [Domain("animals", EntityType.MISC)]
    concepts = [ConceptSpec("animal", "animals", ("dog", "cat", "pig"))]
    instances = [
        InstanceSpec(name, (Sense("animals", frozenset({"animal"})),))
        for name in ("dog", "cat", "pig")
    ]
    return World(domains, concepts, instances)


def _truth(kb=None):
    return GroundTruth(_world(), kb or KnowledgeBase())


class TestCleaningMetrics:
    def test_perfect_cleaning(self):
        truth = _truth()
        before = {"animal": frozenset({"dog", "cat", "junk1", "junk2"})}
        after = {"animal": frozenset({"dog", "cat"})}
        m = cleaning_metrics(truth, before, after)
        assert m.p_error == 1.0
        assert m.r_error == 1.0
        assert m.p_corr == 1.0
        assert m.r_corr == 1.0

    def test_collateral_damage(self):
        truth = _truth()
        before = {"animal": frozenset({"dog", "cat", "junk"})}
        after = {"animal": frozenset({"dog"})}
        m = cleaning_metrics(truth, before, after)
        assert m.p_error == pytest.approx(0.5)   # junk + cat removed
        assert m.r_error == 1.0
        assert m.r_corr == pytest.approx(0.5)    # cat was sacrificed

    def test_no_cleaning(self):
        truth = _truth()
        before = {"animal": frozenset({"dog", "junk"})}
        m = cleaning_metrics(truth, before, before)
        assert m.p_error == 0.0
        assert m.r_error == 0.0
        assert m.p_corr == pytest.approx(0.5)
        assert m.r_corr == 1.0

    def test_concept_filter(self):
        truth = _truth()
        before = {
            "animal": frozenset({"dog"}),
            "other": frozenset({"junk"}),
        }
        m = cleaning_metrics(truth, before, before, concepts=["animal"])
        assert m.remaining == 1


class TestDetectionMetrics:
    def test_perfect(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog",), iteration=1)
        truth = _truth(kb)
        predictions = {"animal": {"dog": DPLabel.NON_DP}}
        m = detection_metrics(truth, predictions)
        assert m.accuracy == 1.0
        assert m.support == 1

    def test_leaf_errors_excluded(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "junk"), iteration=1)
        truth = _truth(kb)
        predictions = {
            "animal": {"dog": DPLabel.NON_DP, "junk": DPLabel.ACCIDENTAL}
        }
        m = detection_metrics(truth, predictions)
        assert m.support == 1  # junk has no DP class

    def test_precision_recall(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "cat", "chicken2"), iteration=1)
        truth = _truth(kb)
        # dog: true non-DP predicted DP (fp); cat: non-DP ok (tn)
        predictions = {
            "animal": {
                "dog": DPLabel.INTENTIONAL,
                "cat": DPLabel.NON_DP,
            }
        }
        m = detection_metrics(truth, predictions)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.accuracy == pytest.approx(0.5)


class TestPrecisionAtK:
    def test_top_k(self):
        truth = _truth()
        scores = {"animal": {"dog": 0.9, "junk": 0.8, "cat": 0.1}}
        assert precision_at_k(truth, scores, 2) == pytest.approx(0.5)
        assert precision_at_k(truth, scores, 3) == pytest.approx(2 / 3)

    def test_k_larger_than_concept(self):
        truth = _truth()
        scores = {"animal": {"dog": 0.9}}
        assert precision_at_k(truth, scores, 100) == 1.0

    def test_empty(self):
        assert precision_at_k(_truth(), {}, 10) == 0.0

    def test_ties_at_the_cut_do_not_depend_on_insertion_order(self):
        # dog and junk tie at the cut of k = 2; whichever order the dict
        # lists them in, the tie falls by name: dog (correct) is kept.
        truth = _truth()
        forward = {"animal": {"cat": 0.9, "dog": 0.5, "junk": 0.5}}
        backward = {"animal": {"junk": 0.5, "dog": 0.5, "cat": 0.9}}
        assert precision_at_k(truth, forward, 2) == 1.0
        assert precision_at_k(truth, backward, 2) == 1.0


class TestSentenceCheckMetrics:
    def _corpus(self):
        sentences = (
            Sentence(
                sid=0, surface="a", concepts=("animal", "food"),
                instances=("pork",),
                truth=SentenceTruth(concept="food", kind=SentenceKind.AMBIGUOUS),
            ),
            Sentence(
                sid=1, surface="b", concepts=("animal", "food"),
                instances=("cat",),
                truth=SentenceTruth(concept="animal", kind=SentenceKind.AMBIGUOUS),
            ),
        )
        return Corpus(sentences)

    def _check(self, sid, concept, drifting):
        return SentenceCheck(
            sid=sid, chosen_concept=concept, trigger_instance="x",
            scores=(), is_drifting=drifting,
        )

    def test_perfect_checks(self):
        checks = [
            self._check(0, "animal", True),   # truly wrong, flagged
            self._check(1, "animal", False),  # truly right, kept
        ]
        p, r = sentence_check_metrics(self._corpus(), checks)
        assert p == 1.0
        assert r == 1.0

    def test_missed_bad_extraction(self):
        checks = [self._check(0, "animal", False)]
        p, r = sentence_check_metrics(self._corpus(), checks)
        assert p == 0.0
        assert r == 0.0

    def test_concept_filter(self):
        checks = [self._check(0, "animal", True)]
        p, r = sentence_check_metrics(self._corpus(), checks, ["food"])
        assert (p, r) == (0.0, 0.0)
