"""Tests for the isA pair value object."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.kb import IsAPair


class TestValue:
    def test_fields(self):
        pair = IsAPair("animal", "dog")
        assert pair.concept == "animal"
        assert pair.instance == "dog"

    def test_keyword_construction(self):
        assert IsAPair(concept="animal", instance="dog") == IsAPair(
            "animal", "dog"
        )
        assert IsAPair("animal", instance="dog").instance == "dog"

    def test_hash_is_the_tuple_hash(self):
        assert hash(IsAPair("animal", "dog")) == hash(("animal", "dog"))

    def test_equals_the_plain_tuple(self):
        assert IsAPair("animal", "dog") == ("animal", "dog")
        assert IsAPair("animal", "dog") != IsAPair("dog", "animal")

    def test_orders_by_concept_then_instance(self):
        pairs = [
            IsAPair("food", "beef"),
            IsAPair("animal", "pig"),
            IsAPair("animal", "cow"),
        ]
        assert sorted(pairs) == [
            IsAPair("animal", "cow"),
            IsAPair("animal", "pig"),
            IsAPair("food", "beef"),
        ]
        assert IsAPair("animal", "cow") < IsAPair("animal", "pig")

    def test_repr(self):
        assert repr(IsAPair("animal", "dog's")) == (
            "IsAPair(concept='animal', instance=\"dog's\")"
        )

    def test_immutable(self):
        pair = IsAPair("animal", "dog")
        with pytest.raises(AttributeError):
            pair.concept = "food"
        with pytest.raises(AttributeError):
            pair.extra = 1


class TestValidation:
    @pytest.mark.parametrize(
        ("concept", "instance", "message"),
        [
            ("", "dog", "concept must be non-empty"),
            ("animal", "", "instance must be non-empty"),
        ],
    )
    def test_empty_field_rejected(self, concept, instance, message):
        with pytest.raises(ValueError, match=message):
            IsAPair(concept, instance)

    def test_missing_field_rejected(self):
        with pytest.raises(TypeError):
            IsAPair("animal")


class TestCopies:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        pair = IsAPair("animal", "dog")
        loaded = pickle.loads(pickle.dumps(pair, protocol=protocol))
        assert type(loaded) is IsAPair
        assert loaded == pair and hash(loaded) == hash(pair)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_and_deepcopy(self, clone):
        pair = IsAPair("animal", "dog")
        copied = clone({pair: [pair]})
        (key, [value]), = copied.items()
        assert type(key) is IsAPair and type(value) is IsAPair
        assert key == pair and value.instance == "dog"
