"""Tests for sentence value objects."""

from __future__ import annotations

import pytest

from repro.corpus.sentence import Sentence, SentenceKind, SentenceTruth

from .helpers import sentence_without_truth


def _sentence(**overrides):
    base = dict(
        sid=1,
        surface="animals such as dog and cat",
        concepts=("animal",),
        instances=("dog", "cat"),
        truth=SentenceTruth(concept="animal", kind=SentenceKind.UNAMBIGUOUS),
    )
    base.update(overrides)
    return Sentence(**base)


class TestSentence:
    def test_unambiguous(self):
        assert not _sentence().is_ambiguous

    def test_ambiguous(self):
        sentence = _sentence(concepts=("animal", "food"))
        assert sentence.is_ambiguous

    def test_requires_concepts(self):
        with pytest.raises(ValueError):
            _sentence(concepts=())

    def test_requires_instances(self):
        with pytest.raises(ValueError):
            _sentence(instances=())

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError):
            _sentence(concepts=("animal", "animal"))

    def test_without_truth(self):
        stripped = sentence_without_truth(_sentence())
        assert stripped.truth is None
        assert stripped.surface == _sentence().surface
