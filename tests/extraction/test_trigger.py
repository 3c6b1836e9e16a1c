"""Tests for resolution policies, including the paper's Fig. 1(b) cases."""

from __future__ import annotations

import pytest

from repro.corpus.sentence import Sentence
from repro.errors import ExtractionError
from repro.extraction.trigger import resolve
from repro.kb import IsAPair


def _sentence(concepts, instances):
    return Sentence(
        sid=0, surface="x", concepts=concepts, instances=instances
    )


class TestNearestPolicy:
    def test_paper_drift_case(self):
        # "food from animals such as pork, beef and chicken" with
        # (chicken isA animal) known: nearest candidate 'animal' wins.
        sentence = _sentence(("animal", "food"), ("pork", "beef", "chicken"))
        known = {"animal": frozenset({"chicken", "dog"})}
        resolution = resolve(sentence, known, policy="nearest")
        assert resolution.concept == "animal"
        assert resolution.triggers == (IsAPair("animal", "chicken"),)

    def test_paper_benign_case(self):
        # "animals from african countries such as giraffe and lion" with
        # (lion isA animal) known: nearest candidate has no evidence, so
        # knowledge falls through to 'animal'.
        sentence = _sentence(("african country", "animal"), ("giraffe", "lion"))
        known = {"animal": frozenset({"lion"})}
        resolution = resolve(sentence, known, policy="nearest")
        assert resolution.concept == "animal"
        assert resolution.triggers == (IsAPair("animal", "lion"),)

    def test_unresolvable_returns_none(self):
        sentence = _sentence(("animal", "food"), ("pork", "beef"))
        assert resolve(sentence, {}, policy="nearest") is None

    def test_multiple_triggers_collected(self):
        sentence = _sentence(("animal",), ("dog", "cat", "emu"))
        known = {"animal": frozenset({"dog", "cat"})}
        resolution = resolve(sentence, known)
        assert set(resolution.triggers) == {
            IsAPair("animal", "dog"), IsAPair("animal", "cat"),
        }


class TestMaxEvidencePolicy:
    def test_prefers_more_evidence(self):
        sentence = _sentence(("animal", "food"), ("pork", "beef", "chicken"))
        known = {
            "animal": frozenset({"chicken"}),
            "food": frozenset({"pork", "beef", "chicken"}),
        }
        resolution = resolve(sentence, known, policy="max_evidence")
        assert resolution.concept == "food"
        assert len(resolution.triggers) == 3

    def test_tie_broken_by_proximity(self):
        sentence = _sentence(("animal", "food"), ("chicken", "emu"))
        known = {
            "animal": frozenset({"chicken"}),
            "food": frozenset({"chicken"}),
        }
        resolution = resolve(sentence, known, policy="max_evidence")
        assert resolution.concept == "animal"


class TestValidation:
    def test_unknown_policy(self):
        sentence = _sentence(("animal",), ("dog",))
        with pytest.raises(ExtractionError):
            resolve(sentence, {}, policy="bogus")
