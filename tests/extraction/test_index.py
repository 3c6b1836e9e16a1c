"""Unit tests for the candidate index and resolution worklist."""

from __future__ import annotations

from repro.corpus.sentence import Sentence
from repro.extraction import CandidateIndex, ResolutionWorklist
from repro.kb import IsAPair
from repro.kb.store import KnowledgeBase


def _waiters(index, concept, instance):
    """Pending sids with ``(concept, instance)`` among their candidates."""
    return frozenset(index._waiting.get((concept, instance), ()))


def _sentence(sid, concepts, instances):
    return Sentence(sid=sid, surface=f"s{sid}", concepts=concepts,
                    instances=instances)


class TestCandidateIndex:
    def test_watch_registers_every_candidate_pair(self):
        index = CandidateIndex()
        index.watch(_sentence(7, ("animal", "food"), ("pork", "ham")))
        assert 7 in index
        assert len(index) == 1
        for concept in ("animal", "food"):
            for instance in ("pork", "ham"):
                assert _waiters(index, concept, instance) == {7}

    def test_watch_is_idempotent(self):
        index = CandidateIndex()
        sentence = _sentence(1, ("a", "b"), ("x",))
        index.watch(sentence)
        index.watch(sentence)
        assert len(index) == 1
        assert _waiters(index, "a", "x") == {1}

    def test_discard_drops_all_entries(self):
        index = CandidateIndex()
        index.watch(_sentence(1, ("a", "b"), ("x",)))
        index.watch(_sentence(2, ("a",), ("x", "y")))
        index.discard(1)
        assert 1 not in index
        assert _waiters(index, "a", "x") == {2}
        assert _waiters(index, "b", "x") == frozenset()
        index.discard(2)
        assert len(index) == 0
        assert _waiters(index, "a", "y") == frozenset()
        index.discard(99)  # unknown sid is a no-op

    def test_waiters_unknown_pair_is_empty(self):
        assert _waiters(CandidateIndex(), "a", "x") == frozenset()


class TestResolutionWorklist:
    def test_commit_deltas_wakes_only_new_instances(self):
        kb = KnowledgeBase()
        worklist = ResolutionWorklist()
        worklist.watch(_sentence(1, ("animal", "food"), ("pork", "ham")))
        worklist.watch(_sentence(2, ("animal",), ("beef",)))

        kb.add_extraction(sid=10, concept="animal", instances=("dog", "pork"),
                          triggers=(), iteration=1)
        worklist.advance(kb, ["animal"])
        assert worklist.visible["animal"] == frozenset({"dog", "pork"})
        assert worklist.take_woken({1: None}) == {1}

        # Same snapshot again: no transition, nobody wakes.
        worklist.advance(kb, ["animal"])
        assert worklist.take_woken({1: None, 2: None}) == set()

        kb.add_extraction(sid=11, concept="animal", instances=("beef",),
                          triggers=(), iteration=2)
        worklist.advance(kb, ["animal"])
        assert worklist.take_woken({1: None, 2: None}) == {2}

    def test_resolved_clears_index_and_wake_set(self):
        kb = KnowledgeBase()
        worklist = ResolutionWorklist()
        worklist.watch(_sentence(1, ("animal",), ("pork",)))
        kb.add_extraction(sid=10, concept="animal", instances=("pork",),
                          triggers=(), iteration=1)
        worklist.advance(kb, ["animal"])
        worklist.resolved(1)
        assert worklist.take_woken({1: None}) == set()
        assert 1 not in worklist.index

    def test_take_woken_filters_to_pending_and_drains(self):
        worklist = ResolutionWorklist()
        worklist.wake_all([1, 2, 3])
        assert worklist.take_woken({2: None, 3: None}) == {2, 3}
        assert worklist.take_woken({1: None, 2: None, 3: None}) == set()

    def test_resync_forgets_removed_pairs_and_rearms_the_delta(self):
        kb = KnowledgeBase()
        worklist = ResolutionWorklist()
        worklist.watch(_sentence(1, ("animal",), ("pork",)))

        kb.add_extraction(sid=10, concept="animal", instances=("pork",),
                          triggers=(), iteration=1)
        worklist.advance(kb, ["animal"])
        worklist.take_woken({1: None})  # drain the initial wake

        # Rollback removes the pair out-of-band; resync must shrink the
        # snapshot (and pop the now-empty concept) without waking anyone.
        kb.remove_pair(IsAPair("animal", "pork"))
        worklist.advance(kb, ["animal"])
        assert "animal" not in worklist.visible
        assert worklist.take_woken({1: None}) == set()

        # A later re-extraction of the same pair is a fresh transition.
        kb.add_extraction(sid=11, concept="animal", instances=("pork",),
                          triggers=(), iteration=5)
        worklist.advance(kb, ["animal"])
        assert worklist.take_woken({1: None}) == {1}

    def test_shared_visible_dict_is_advanced_in_place(self):
        visible = {}
        worklist = ResolutionWorklist(visible)
        kb = KnowledgeBase()
        kb.add_extraction(sid=1, concept="food", instances=("bread",),
                          triggers=(), iteration=1)
        worklist.advance(kb, ["food"])
        assert visible["food"] == frozenset({"bread"})
