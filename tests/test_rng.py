"""Tests for deterministic RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rng import DEFAULT_SEED, RandomStreams, generator_from


class TestGeneratorFrom:
    def test_none_uses_default_seed(self):
        a = generator_from(None)
        b = np.random.default_rng(DEFAULT_SEED)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_int_seed(self):
        a = generator_from(5)
        b = generator_from(5)
        assert a.random() == b.random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert generator_from(rng) is rng


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(seed=42)
        a = streams.stream("corpus").random(5)
        b = streams.stream("corpus").random(5)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        streams = RandomStreams(seed=42)
        a = streams.stream("corpus").random(5)
        b = streams.stream("noise").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x").random(5)
        b = RandomStreams(seed=2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams(seed="nope")  # type: ignore[arg-type]

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=20))
    def test_stream_reproducible_property(self, seed, name):
        first = RandomStreams(seed).stream(name).integers(0, 1 << 30)
        second = RandomStreams(seed).stream(name).integers(0, 1 << 30)
        assert first == second
