"""Tests for the knowledge base store."""

from __future__ import annotations

import pytest

from repro.errors import KnowledgeBaseError
from repro.kb import IsAPair, KnowledgeBase


def _pair(concept="animal", instance="dog"):
    return IsAPair(concept, instance)


class TestAddExtraction:
    def test_creates_pairs_with_counts(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "cat"), iteration=1)
        assert len(kb) == 2
        assert kb.count(_pair()) == 1
        assert kb.has_instance("animal", "cat")

    def test_repeated_evidence_increments(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog",), iteration=1)
        kb.add_extraction(1, "animal", ("dog",), iteration=1)
        assert kb.count(_pair()) == 2
        assert len(kb) == 1

    def test_first_iteration_sticks(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog",), iteration=1)
        trigger = _pair()
        kb.add_extraction(1, "animal", ("dog", "cat"), triggers=(trigger,), iteration=3)
        assert kb.first_iteration(_pair()) == 1
        assert kb.first_iteration(_pair(instance="cat")) == 3

    def test_unknown_trigger_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(KnowledgeBaseError):
            kb.add_extraction(
                0, "animal", ("cat",), triggers=(_pair(instance="ghost"),),
                iteration=2,
            )

    def test_empty_instances_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(KnowledgeBaseError):
            kb.add_extraction(0, "animal", (), iteration=1)

    def test_trigger_concept_mismatch_rejected(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "food", ("pork",), iteration=1)
        with pytest.raises(ValueError):
            kb.add_extraction(
                1, "animal", ("cat",),
                triggers=(IsAPair("food", "pork"),), iteration=2,
            )


class TestQueries:
    def _kb(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "chicken"), iteration=1)
        kb.add_extraction(1, "animal", ("dog",), iteration=1)
        trigger = IsAPair("animal", "chicken")
        kb.add_extraction(
            2, "animal", ("pork", "beef", "chicken"), triggers=(trigger,),
            iteration=2,
        )
        return kb

    def test_pairs_iterate_in_first_insertion_order(self):
        # IncrementalExtractor reads a batch's new pairs off the tail of
        # pairs(); a removed pair that comes back re-enters at the end.
        kb = self._kb()
        order = ["dog", "chicken", "pork", "beef"]
        assert [p.instance for p in kb.pairs()] == order
        kb.remove_pair(IsAPair("animal", "chicken"))
        kb.deactivate_record(1)
        kb.add_extraction(3, "animal", ("chicken", "cat"), iteration=1)
        assert [p.instance for p in kb.pairs()] == [
            "dog", "pork", "beef", "chicken", "cat"
        ]

    def test_core_instances(self):
        kb = self._kb()
        assert kb.core_instances("animal") == frozenset({"dog", "chicken"})

    def test_core_count_only_counts_iteration1_records(self):
        kb = self._kb()
        assert kb.core_count(IsAPair("animal", "chicken")) == 1
        assert kb.core_count(IsAPair("animal", "dog")) == 2
        assert kb.core_count(IsAPair("animal", "pork")) == 0

    def test_sub_instance_counts(self):
        kb = self._kb()
        subs = kb.sub_instance_counts("animal", "chicken")
        assert subs == {"pork": 1, "beef": 1}

    def test_frequency_distribution(self):
        kb = self._kb()
        freq = kb.frequency_distribution("animal")
        assert freq["dog"] == 2
        # trigger mentions are inputs, not fresh evidence
        assert freq["chicken"] == 1

    def test_core_frequency_distribution(self):
        kb = self._kb()
        state = kb.concept_state("animal")
        core = {
            name: int(state.core_count[i])
            for name, i in zip(state.names, state.ids.tolist())
            if state.first_iteration[i] == 1 and state.core_count[i] > 0
        }
        assert core == {"dog": 2, "chicken": 1}

    def test_records_triggered_by(self):
        kb = self._kb()
        triggered = kb.records_triggered_by(IsAPair("animal", "chicken"))
        assert [r.sid for r in triggered] == [2]

    def test_records_for_pair(self):
        kb = self._kb()
        records = kb.records_for_pair(IsAPair("animal", "dog"))
        assert {r.sid for r in records} == {0, 1}

    def test_concepts(self):
        assert self._kb().concepts() == ["animal"]

    def test_missing_pair_queries(self):
        kb = self._kb()
        assert kb.count(IsAPair("animal", "ghost")) == 0
        with pytest.raises(KnowledgeBaseError):
            kb.first_iteration(IsAPair("animal", "ghost"))

    def test_record_lookup_missing(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().record(5)


class TestDeactivate:
    def test_deactivate_decrements(self):
        kb = KnowledgeBase()
        r0 = kb.add_extraction(0, "animal", ("dog",), iteration=1)
        kb.add_extraction(1, "animal", ("dog",), iteration=1)
        died = kb.deactivate_record(r0.rid)
        assert died == []
        assert kb.count(IsAPair("animal", "dog")) == 1

    def test_deactivate_removes_at_zero(self):
        kb = KnowledgeBase()
        r0 = kb.add_extraction(0, "animal", ("dog",), iteration=1)
        died = kb.deactivate_record(r0.rid)
        assert died == [IsAPair("animal", "dog")]
        assert IsAPair("animal", "dog") not in kb
        assert not kb.has_instance("animal", "dog")
        assert IsAPair("animal", "dog") in kb.removed_pairs()

    def test_double_deactivate_rejected(self):
        kb = KnowledgeBase()
        r0 = kb.add_extraction(0, "animal", ("dog",), iteration=1)
        kb.deactivate_record(r0.rid)
        with pytest.raises(KnowledgeBaseError):
            kb.deactivate_record(r0.rid)

    def test_readding_removed_pair_clears_removed_set(self):
        kb = KnowledgeBase()
        r0 = kb.add_extraction(0, "animal", ("dog",), iteration=1)
        kb.deactivate_record(r0.rid)
        kb.add_extraction(1, "animal", ("dog",), iteration=1)
        assert IsAPair("animal", "dog") not in kb.removed_pairs()

    def test_old_producer_does_not_kill_a_re_extracted_pair(self):
        # rome is force-removed while r0 stays active, then re-extracted
        # by r1: its history restarts at r1, so rolling back r0 later
        # must leave it alone.
        kb = KnowledgeBase()
        r0 = kb.add_extraction(0, "city", ("paris", "rome"), iteration=1)
        rome = IsAPair("city", "rome")
        kb.remove_pair(rome)
        kb.add_extraction(1, "city", ("rome", "oslo"), iteration=1)
        died = kb.deactivate_record(r0.rid)
        assert died == [IsAPair("city", "paris")]
        assert rome in kb
        assert kb.count(rome) == 1
        assert rome not in kb.removed_pairs()
