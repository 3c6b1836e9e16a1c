"""Tests for the three ranking models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb import IsAPair, KnowledgeBase
from repro.ranking import FrequencyRanker, PageRankRanker, RandomWalkRanker


def _drift_kb(core_repeats: int = 3):
    """Core animals with repeated evidence; pork dragged in by chicken."""
    kb = KnowledgeBase()
    for i in range(core_repeats):
        kb.add_extraction(i, "animal", ("dog", "cat", "chicken"), iteration=1)
    chicken = IsAPair("animal", "chicken")
    kb.add_extraction(
        100, "animal", ("pork", "chicken"), triggers=(chicken,), iteration=2
    )
    pork = IsAPair("animal", "pork")
    kb.add_extraction(
        101, "animal", ("ham", "pork"), triggers=(pork,), iteration=3
    )
    return kb


class TestFrequencyRanker:
    def test_scores_proportional_to_counts(self):
        kb = _drift_kb()
        scores = FrequencyRanker().score(kb, "animal")
        assert scores["dog"] == scores["cat"] == scores["chicken"]
        assert scores["dog"] > scores["pork"] > 0

    def test_normalised(self):
        scores = FrequencyRanker().score(_drift_kb(), "animal")
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_empty_concept(self):
        assert FrequencyRanker().score(KnowledgeBase(), "animal") == {}


class TestRandomWalkRanker:
    def test_core_outranks_drift(self):
        scores = RandomWalkRanker().score(_drift_kb(), "animal")
        assert scores["dog"] > scores["pork"]
        assert scores["pork"] > scores["ham"]  # deeper drift, lower score

    def test_probability_distribution(self):
        scores = RandomWalkRanker().score(_drift_kb(), "animal")
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(v >= 0 for v in scores.values())

    def test_drift_chain_holds_less_than_core_total(self):
        # The drift chain can hold at most the walk mass that leaks out of
        # the core through the single chicken bridge.
        scores = RandomWalkRanker().score(_drift_kb(core_repeats=5), "animal")
        core_mass = scores["dog"] + scores["cat"] + scores["chicken"]
        drift_mass = scores["pork"] + scores["ham"]
        assert drift_mass < core_mass

    def test_bad_restart_probability(self):
        with pytest.raises(ValueError):
            RandomWalkRanker(restart_probability=1.5)

    def test_frequent_error_scores_below_rare_core(self):
        # The paper's argument for random walk over frequency: a drifting
        # error can be *frequent* yet still poorly connected to the core.
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "chicken"), iteration=1)
        kb.add_extraction(1, "animal", ("rare bird",), iteration=1)
        chicken = IsAPair("animal", "chicken")
        for sid in range(10, 16):  # pork extracted from many sentences
            kb.add_extraction(
                sid, "animal", ("pork",), triggers=(chicken,), iteration=2
            )
        frequency = FrequencyRanker().score(kb, "animal")
        walk = RandomWalkRanker().score(kb, "animal")
        assert frequency["pork"] > frequency["rare bird"]
        assert walk["rare bird"] > 0
        # pork's score is bounded by the leak through chicken
        assert walk["pork"] < walk["dog"]


class TestPageRankRanker:
    def test_distribution(self):
        scores = PageRankRanker().score(_drift_kb(), "animal")
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_isolated_nodes_get_uniform_share(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "cat"), iteration=1)
        scores = PageRankRanker().score(kb, "animal")
        assert scores["dog"] == pytest.approx(scores["cat"])

    def test_bad_teleport(self):
        with pytest.raises(ValueError):
            PageRankRanker(teleport=0.0)


class TestRegistry:
    def test_score_all(self):
        kb = _drift_kb()
        scores = FrequencyRanker().score_all(kb)
        assert set(scores) == {"animal"}


class TestRandomWalkProperties:
    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_distribution_property(self, repeats):
        scores = RandomWalkRanker().score(_drift_kb(repeats), "animal")
        total = sum(scores.values())
        assert np.isclose(total, 1.0, atol=1e-6)
