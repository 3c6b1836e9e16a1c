"""Tests for the preset worlds."""

from __future__ import annotations

import pytest

from repro.world import paper_world, toy_world


class TestPaperWorld:
    def test_has_twenty_targets(self, small_paper_preset):
        assert len(small_paper_preset.target_concepts) == 20

    def test_targets_exist_and_have_profiles(self, small_paper_preset):
        for name in small_paper_preset.target_concepts:
            assert name in small_paper_preset.world
            assert small_paper_preset.profile_for(name) is not None

    def test_every_target_has_cross_domain_partner(self, small_paper_preset):
        world = small_paper_preset.world
        for name in small_paper_preset.target_concepts:
            partners = world.concept(name).partners
            assert partners, f"{name} has no drift source"
            for partner in partners:
                assert world.exclusive(name, partner)

    def test_bridges_exist_for_targets(self, small_paper_preset):
        world = small_paper_preset.world
        bridged = 0
        for name in small_paper_preset.target_concepts:
            for partner in world.concept(name).partners:
                if world.members(name) & world.members(partner):
                    bridged += 1
                    break
        assert bridged >= 18  # nearly every target has a polysemy bridge

    def test_aliases_are_highly_overlapping(self, small_paper_preset):
        world = small_paper_preset.world
        nation = world.members("nation")
        country = world.members("country")
        assert len(nation & country) / len(nation) > 0.7

    def test_scale_changes_size(self):
        small = paper_world(seed=3, scale=0.3).world
        large = paper_world(seed=3, scale=1.0).world
        assert len(large.instances) > len(small.instances)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            paper_world(scale=0)

    def test_deterministic(self):
        a = paper_world(seed=5, scale=0.3)
        b = paper_world(seed=5, scale=0.3)
        assert a.world.members("animal") == b.world.members("animal")


class TestToyWorld:
    def test_structure(self, toy_preset):
        world = toy_preset.world
        assert world.exclusive("animal", "food")
        assert world.members("animal") & world.members("food")
        assert world.concept("animal").partners == ("food",)

    def test_bridge_count_parameter(self):
        preset = toy_world(seed=7, bridges=5)
        world = preset.world
        assert len(world.members("animal") & world.members("food")) == 5


class TestMotivatingExampleWorld:
    def test_chicken_is_polysemous(self, motivating_preset):
        world = motivating_preset.world
        assert world.is_polysemous("chicken")
        assert world.concepts_of("chicken") == frozenset({"animal", "food"})

    def test_new_york_is_city_only(self, motivating_preset):
        world = motivating_preset.world
        assert world.is_member("city", "new york")
        assert not world.is_member("country", "new york")

    def test_pork_is_food_only(self, motivating_preset):
        world = motivating_preset.world
        assert world.concepts_of("pork") == frozenset({"food"})


class TestWorldStats:
    def test_counts(self, toy_preset):
        world = toy_preset.world
        polysemous = len(world.polysemous_instances())
        assert 0 < polysemous < len(world.instances)

    def test_concept_rows(self, toy_preset):
        world = toy_preset.world
        members = world.members("animal")
        assert sum(world.is_polysemous(name) for name in members) >= 3
