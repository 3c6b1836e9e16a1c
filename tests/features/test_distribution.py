"""Tests for distribution helpers (feature f1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import normalize_counts

from ..cleaning.per_instance import cosine_counts

_count_dicts = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    st.floats(min_value=0.01, max_value=100, allow_nan=False),
    max_size=8,
)


class TestCosineCounts:
    def test_identical_vectors(self):
        counts = {"a": 2.0, "b": 1.0}
        assert cosine_counts(counts, counts) == pytest.approx(1.0)

    def test_disjoint_vectors(self):
        assert cosine_counts({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_scale_invariant(self):
        a = {"a": 1.0, "b": 3.0}
        b = {"a": 10.0, "b": 30.0}
        assert cosine_counts(a, b) == pytest.approx(1.0)

    def test_empty_inputs(self):
        assert cosine_counts({}, {"a": 1.0}) == 0.0
        assert cosine_counts({"a": 1.0}, {}) == 0.0

    def test_known_value(self):
        value = cosine_counts({"a": 1.0, "b": 1.0}, {"a": 1.0})
        assert value == pytest.approx(1.0 / math.sqrt(2))

    @given(_count_dicts, _count_dicts)
    @settings(max_examples=80)
    def test_bounded_and_symmetric(self, a, b):
        forward = cosine_counts(a, b)
        backward = cosine_counts(b, a)
        assert 0.0 <= forward <= 1.0 + 1e-9
        assert forward == pytest.approx(backward)


class TestNormalizeCounts:
    def test_sums_to_one(self):
        normalized = normalize_counts({"a": 2, "b": 2})
        assert sum(normalized.values()) == pytest.approx(1.0)
        assert normalized["a"] == pytest.approx(0.5)

    def test_empty(self):
        assert normalize_counts({}) == {}

    @given(_count_dicts)
    @settings(max_examples=50)
    def test_property(self, counts):
        normalized = normalize_counts(counts)
        if counts:
            assert sum(normalized.values()) == pytest.approx(1.0)
