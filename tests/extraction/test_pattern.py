"""Tests for the surface Hearst parser, including generator round-trips."""

from __future__ import annotations

import pytest

from repro.config import ConceptProfile, CorpusConfig
from repro.corpus import generate_corpus

from ..corpus.hearst_parser import HearstParser, naive_singularize


class TestNaiveSingularize:
    @pytest.mark.parametrize(
        "plural,singular",
        [
            ("dogs", "dog"),
            ("countries", "country"),
            ("asian countries", "asian country"),
            ("buses", "bus"),
            ("boxes", "box"),
            ("churches", "church"),
            ("glass", "glass"),  # -ss guarded
        ],
    )
    def test_cases(self, plural, singular):
        assert naive_singularize(plural) == singular


class TestHearstParser:
    def test_unambiguous(self):
        parser = HearstParser(concept_lexicon=["animal"])
        parsed = parser.parse("many animals such as dog, cat and pig")
        assert parsed.concepts == ("animal",)
        assert parsed.instances == ("dog", "cat", "pig")

    def test_ambiguous_orders_modifier_first(self):
        parser = HearstParser(concept_lexicon=["animal", "food"])
        parsed = parser.parse("foods from animals such as pork and beef")
        assert parsed.concepts == ("animal", "food")

    def test_misparse_attaches_to_excluded(self):
        parser = HearstParser(concept_lexicon=["animal"], entity_lexicon=["dog"])
        parsed = parser.parse("animals other than dogs such as cat")
        assert parsed.concepts == ("dog",)
        assert parsed.instances == ("cat",)

    def test_no_cue_returns_none(self):
        parser = HearstParser()
        assert parser.parse("the dog barked") is None

    def test_single_instance(self):
        parser = HearstParser(concept_lexicon=["animal"])
        parsed = parser.parse("animals such as dog")
        assert parsed.instances == ("dog",)

    def test_fallback_singularisation_without_lexicon(self):
        parser = HearstParser()
        parsed = parser.parse("popular animals such as dog and cat")
        assert parsed.concepts == ("animal",)

    def test_multiword_concept(self):
        parser = HearstParser(concept_lexicon=["asian country"])
        parsed = parser.parse("some asian countries such as japan and china")
        assert parsed.concepts == ("asian country",)


class TestRoundTrip:
    def test_generated_corpus_roundtrips(self, toy_preset):
        world = toy_preset.world
        config = CorpusConfig(
            num_sentences=600,
            profiles=toy_preset.profiles,
            default_profile=ConceptProfile(ambiguous_rate=0.5, typo_rate=0.05),
            misparse_rate=0.02,
        )
        corpus = generate_corpus(world, config, seed=23)
        parser = HearstParser(
            concept_lexicon=world.concepts.keys(),
            entity_lexicon=world.instances.keys(),
        )
        for sentence in corpus:
            parsed = parser.parse(sentence.surface)
            assert parsed is not None, sentence.surface
            assert parsed.concepts == sentence.concepts, sentence.surface
            assert parsed.instances == sentence.instances, sentence.surface
