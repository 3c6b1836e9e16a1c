"""Tests for the World taxonomy queries."""

from __future__ import annotations

import pytest

from repro.errors import UnknownConceptError, UnknownInstanceError, WorldError
from repro.nlp.types import EntityType
from repro.world.schema import ConceptSpec, Domain, InstanceSpec, Sense
from repro.world.taxonomy import World


def _tiny_world() -> World:
    domains = [Domain("animals", EntityType.MISC), Domain("foods", EntityType.MISC)]
    concepts = [
        ConceptSpec("animal", "animals", ("dog", "chicken")),
        ConceptSpec("food", "foods", ("pork", "chicken")),
    ]
    instances = [
        InstanceSpec("dog", (Sense("animals", frozenset({"animal"})),)),
        InstanceSpec("pork", (Sense("foods", frozenset({"food"})),)),
        InstanceSpec(
            "chicken",
            (
                Sense("animals", frozenset({"animal"})),
                Sense("foods", frozenset({"food"})),
            ),
        ),
    ]
    return World(domains, concepts, instances)


class TestMembership:
    def test_is_member(self):
        world = _tiny_world()
        assert world.is_member("animal", "dog")
        assert not world.is_member("animal", "pork")

    def test_unknown_surface_is_member_of_nothing(self):
        world = _tiny_world()
        assert not world.is_member("animal", "syngapore")
        assert world.concepts_of("syngapore") == frozenset()

    def test_concepts_of(self):
        world = _tiny_world()
        assert world.concepts_of("chicken") == frozenset({"animal", "food"})

    def test_members(self):
        assert _tiny_world().members("food") == frozenset({"pork", "chicken"})

    def test_unknown_concept_raises(self):
        with pytest.raises(UnknownConceptError):
            _tiny_world().members("vehicle")

    def test_unknown_instance_raises(self):
        with pytest.raises(UnknownInstanceError):
            _tiny_world().instance("ghost")


class TestPolysemyAndExclusion:
    def test_polysemy(self):
        world = _tiny_world()
        assert world.is_polysemous("chicken")
        assert not world.is_polysemous("dog")
        assert world.polysemous_instances() == frozenset({"chicken"})

    def test_exclusive_cross_domain(self):
        assert _tiny_world().exclusive("animal", "food")


class TestTyping:
    def test_coarse_type_uses_primary_sense(self):
        world = _tiny_world()
        assert world.gazetteer()["chicken"] is EntityType.MISC

    def test_expected_type(self):
        assert _tiny_world().expected_type("animal") is EntityType.MISC

    def test_gazetteer_covers_all_instances(self):
        world = _tiny_world()
        gazetteer = world.gazetteer()
        assert set(gazetteer) == {"dog", "pork", "chicken"}


class TestValidation:
    def test_concept_with_unknown_member_rejected(self):
        domains = [Domain("animals")]
        concepts = [ConceptSpec("animal", "animals", ("ghost",))]
        with pytest.raises(WorldError):
            World(domains, concepts, [])

    def test_concept_with_unknown_domain_rejected(self):
        concepts = [ConceptSpec("animal", "nowhere", ())]
        with pytest.raises(WorldError):
            World([], concepts, [])

    def test_sense_concept_domain_mismatch_rejected(self):
        domains = [Domain("animals"), Domain("foods")]
        concepts = [ConceptSpec("animal", "animals", ("dog",))]
        instances = [
            InstanceSpec("dog", (Sense("foods", frozenset({"animal"})),))
        ]
        with pytest.raises(WorldError):
            World(domains, concepts, instances)

    def test_unknown_partner_rejected(self):
        domains = [Domain("animals")]
        concepts = [ConceptSpec("animal", "animals", (), partners=("ghost",))]
        with pytest.raises(WorldError):
            World(domains, concepts, [])
