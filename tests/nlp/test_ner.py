"""Tests for the simulated NER."""

from __future__ import annotations

import pytest

from repro.nlp.ner import SimulatedNER
from repro.nlp.types import COARSE_TYPES, EntityType


def _gazetteer():
    return {
        "paris": EntityType.LOCATION,
        "acme": EntityType.ORGANIZATION,
        "alice": EntityType.PERSON,
        "chicken": EntityType.MISC,
    }


class TestSimulatedNER:
    def test_perfect_accuracy_returns_truth(self):
        ner = SimulatedNER(_gazetteer(), accuracy=1.0)
        assert ner.tag("paris") is EntityType.LOCATION
        assert ner.tag("alice") is EntityType.PERSON

    def test_unknown_surface_is_misc(self):
        ner = SimulatedNER(_gazetteer(), accuracy=1.0)
        assert ner.tag("syngapore") is EntityType.MISC

    def test_zero_accuracy_always_wrong(self):
        ner = SimulatedNER(_gazetteer(), accuracy=0.0)
        assert ner.tag("paris") is not EntityType.LOCATION

    def test_confusion_is_deterministic_per_surface(self):
        ner = SimulatedNER(_gazetteer(), accuracy=0.5, seed=3)
        tags = {ner.tag("paris") for _ in range(10)}
        assert len(tags) == 1

    def test_confused_tag_is_valid_type(self):
        ner = SimulatedNER(_gazetteer(), accuracy=0.0, seed=3)
        assert ner.tag("acme") in COARSE_TYPES

    def test_accuracy_statistics(self):
        gazetteer = {f"name{i}": EntityType.PERSON for i in range(800)}
        ner = SimulatedNER(gazetteer, accuracy=0.9, seed=0)
        correct = sum(ner.tag(name) is EntityType.PERSON for name in gazetteer)
        assert 0.85 < correct / len(gazetteer) < 0.95

    def test_bad_accuracy_rejected(self):
        with pytest.raises(ValueError):
            SimulatedNER({}, accuracy=1.2)

    def test_container_protocol(self):
        ner = SimulatedNER(_gazetteer())
        assert "paris" in ner
        assert "ghost" not in ner
        assert len(ner) == 4


class TestTagMemo:
    """Tags are memoised per surface; a memo hit is the fresh draw."""

    def test_memoised_tags_equal_fresh_ones_over_the_gazetteer(
        self, toy_preset
    ):
        gazetteer = toy_preset.world.gazetteer()
        ner = SimulatedNER(gazetteer, accuracy=0.6, misc_bias=0.5, seed=7)
        first = {surface: ner.tag(surface) for surface in gazetteer}
        for surface in gazetteer:
            fresh = SimulatedNER(
                gazetteer, accuracy=0.6, misc_bias=0.5, seed=7
            )
            assert ner.tag(surface) is first[surface]
            assert fresh.tag(surface) is first[surface]
        assert len(set(first.values())) > 1

    def test_memo_belongs_to_the_instance(self, toy_preset):
        gazetteer = toy_preset.world.gazetteer()
        seven = SimulatedNER(gazetteer, accuracy=0.6, seed=7)
        tags_seven = {surface: seven.tag(surface) for surface in gazetteer}
        eight = SimulatedNER(gazetteer, accuracy=0.6, seed=8)
        tags_eight = {surface: eight.tag(surface) for surface in gazetteer}
        assert tags_eight != tags_seven
        assert tags_eight == {
            surface: SimulatedNER(gazetteer, accuracy=0.6, seed=8).tag(surface)
            for surface in gazetteer
        }
