"""Tests for world persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import WorldError
from repro.world import load_world, save_world


class TestRoundTrip:
    def test_toy_world(self, tmp_path, toy_preset):
        path = tmp_path / "world.json"
        save_world(toy_preset.world, path)
        loaded = load_world(path)
        original = toy_preset.world
        assert set(loaded.concepts) == set(original.concepts)
        assert set(loaded.instances) == set(original.instances)
        for name in original.concepts:
            assert loaded.members(name) == original.members(name)
            assert loaded.concept(name).partners == original.concept(name).partners
        assert loaded.polysemous_instances() == original.polysemous_instances()

    def test_types_preserved(self, tmp_path, toy_preset):
        path = tmp_path / "world.json"
        save_world(toy_preset.world, path)
        loaded = load_world(path)
        assert loaded.gazetteer() == toy_preset.world.gazetteer()

    def test_paper_world_roundtrip(self, tmp_path, small_paper_preset):
        path = tmp_path / "world.json"
        save_world(small_paper_preset.world, path)
        loaded = load_world(path)
        assert len(loaded.instances) == len(small_paper_preset.world.instances)


class TestValidation:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(WorldError):
            load_world(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(WorldError):
            load_world(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-world", "version": 9}))
        with pytest.raises(WorldError):
            load_world(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "repro-world", "version": 1,
            "domains": [{"name": "x", "coarse_type": "misc"}],
            "concepts": [{"name": "c"}],  # missing fields
            "instances": [],
        }))
        with pytest.raises(WorldError):
            load_world(path)
