"""Tests for the mutation version counters behind the score caches."""

from __future__ import annotations

from repro.kb import IsAPair, KnowledgeBase

from .state import records_for_concept


def _kb():
    kb = KnowledgeBase()
    kb.add_extraction(0, "animal", ("dog", "cat", "chicken"), iteration=1)
    kb.add_extraction(1, "food", ("pork", "beef"), iteration=1)
    chicken = IsAPair("animal", "chicken")
    kb.add_extraction(
        2, "animal", ("pork", "chicken"), triggers=(chicken,), iteration=2
    )
    return kb


class TestVersionCounters:
    def test_add_extraction_bumps_global_version(self):
        kb = KnowledgeBase()
        before = kb.version
        kb.add_extraction(0, "animal", ("dog",), iteration=1)
        assert kb.version > before

    def test_concept_version_tracks_only_its_concept(self):
        kb = _kb()
        animal = kb.concept_version("animal")
        food = kb.concept_version("food")
        kb.add_extraction(3, "food", ("rice",), iteration=1)
        assert kb.concept_version("animal") == animal
        assert kb.concept_version("food") > food

    def test_remove_pair_bumps_version(self):
        kb = _kb()
        animal = kb.concept_version("animal")
        kb.remove_pair(IsAPair("animal", "pork"))
        assert kb.concept_version("animal") > animal

    def test_deactivate_record_bumps_version(self):
        kb = _kb()
        animal = kb.concept_version("animal")
        kb.deactivate_record(2)
        assert kb.concept_version("animal") > animal

    def test_reads_do_not_bump(self):
        kb = _kb()
        version = kb.version
        kb.concepts()
        kb.concept_state("animal")
        kb.sub_instance_counts("animal", "chicken")
        records_for_concept(kb, "animal")
        assert kb.version == version

    def test_dirty_concepts_since(self):
        kb = _kb()
        mark = kb.version
        kb.remove_pair(IsAPair("food", "beef"))
        dirty = kb.dirty_concepts_since(mark)
        assert "food" in dirty
        assert "animal" not in dirty


class TestConceptsCache:
    def test_sorted_and_refreshed_on_mutation(self):
        kb = _kb()
        first = kb.concepts()
        assert first == sorted(first)
        # unchanged KB: repeat reads come from the cached tuple
        assert kb.concepts() == first
        kb.add_extraction(4, "city", ("boston",), iteration=1)
        second = kb.concepts()
        assert "city" in second
        assert second == sorted(second)
