"""``KnowledgeBase.copy``: an independent KB that reads like the original."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ExtractionConfig
from repro.extraction import SemanticIterativeExtractor
from repro.kb import KnowledgeBase, RollbackEngine, save_kb
from repro.kb.record import ExtractionRecord
from repro.kb.serialize import kb_state
from repro.kb.store import PairState

from .state import assert_same_state


@pytest.fixture
def mid_session_kb(toy_corpus) -> KnowledgeBase:
    """A real extraction after cleaning-style mutations.

    It holds inactive records, dead triggers, a force-removed pair, pairs
    that died with their records, and a removed pair extracted again.
    """
    extractor = SemanticIterativeExtractor(ExtractionConfig(stream_chunks=4))
    kb = extractor.run(toy_corpus).kb
    engine = RollbackEngine(kb)
    trigger = max(kb.pairs(), key=lambda p: len(kb.records_triggered_by(p)))
    engine.rollback_pair(trigger)
    root = next(
        r for r in kb.records()
        if not r.triggers and any(kb.count(p) == 1 for p in r.produced)
    )
    assert engine.rollback_records([root.rid]).pairs_removed
    kb.add_extraction(10_000, trigger.concept, (trigger.instance,),
                      iteration=3)
    assert kb_state(kb)["inactive"]
    assert kb.dead_triggers()
    assert kb.restarted_pairs() and kb.removed_pairs()
    return kb


def _kb_bytes(kb: KnowledgeBase, path) -> bytes:
    save_kb(kb, path)
    return path.read_bytes()


def _touched_concepts(kb: KnowledgeBase) -> set[str]:
    return set(kb.concepts()) | {p.concept for p in kb.removed_pairs()}


class TestCopyReadsLikeTheOriginal:
    def test_bytes_state_and_versions(self, mid_session_kb, tmp_path):
        kb = mid_session_kb
        clone = kb.copy()
        assert _kb_bytes(clone, tmp_path / "a") == _kb_bytes(
            kb, tmp_path / "b"
        )
        assert kb_state(clone) == kb_state(kb)
        assert_same_state(kb, clone)
        assert clone.version == kb.version
        for concept in _touched_concepts(kb):
            assert clone.concept_version(concept) == kb.concept_version(
                concept
            )

    def test_iteration_orders_and_derived_reads(self, mid_session_kb):
        kb = mid_session_kb
        # Warm the original's memos first: the copy must not need them.
        for concept in kb.concepts():
            kb.concept_state(concept)
        clone = kb.copy()
        assert [r.rid for r in clone.records(include_inactive=True)] == [
            r.rid for r in kb.records(include_inactive=True)
        ]
        assert np.array_equal(
            clone.record_active_flags(), kb.record_active_flags()
        )
        # Rid sets iterate in table order; cleaning walks them in it.
        for pair in list(kb.pairs()) + sorted(kb.removed_pairs()):
            assert [r.rid for r in clone.records_triggered_by(pair)] == [
                r.rid for r in kb.records_triggered_by(pair)
            ]
        for concept in _touched_concepts(kb):
            for ours, theirs in zip(
                clone.edge_arrays(concept), kb.edge_arrays(concept)
            ):
                assert np.array_equal(ours, theirs)
            assert list(clone.instance_id_map(concept).items()) == list(
                kb.instance_id_map(concept).items()
            )
            assert np.array_equal(
                clone.instance_numbers(concept), kb.instance_numbers(concept)
            )
            ours, theirs = clone.concept_state(concept), kb.concept_state(
                concept
            )
            assert ours.names == theirs.names
            for field in ours._fields[1:]:
                assert np.array_equal(
                    getattr(ours, field), getattr(theirs, field)
                )
            for instance in kb.concept_state(concept).names:
                assert list(
                    clone.sub_instance_counts(concept, instance).items()
                ) == list(kb.sub_instance_counts(concept, instance).items())


class TestCopyIsIndependent:
    @staticmethod
    def _mutate(kb: KnowledgeBase) -> None:
        """A rollback cascade plus a new extraction."""
        trigger = max(
            kb.pairs(), key=lambda p: len(kb.records_triggered_by(p))
        )
        RollbackEngine(kb).rollback_pair(trigger)
        kb.add_extraction(20_000, "fresh-concept", ("fresh-instance",))

    def test_mutating_the_copy_leaves_the_original(
        self, mid_session_kb, tmp_path
    ):
        before = _kb_bytes(mid_session_kb, tmp_path / "before")
        version = mid_session_kb.version
        clone = mid_session_kb.copy()
        self._mutate(clone)
        assert _kb_bytes(clone, tmp_path / "clone") != before
        assert _kb_bytes(mid_session_kb, tmp_path / "after") == before
        assert mid_session_kb.version == version

    def test_mutating_the_original_leaves_the_copy(
        self, mid_session_kb, tmp_path
    ):
        clone = mid_session_kb.copy()
        before = _kb_bytes(clone, tmp_path / "before")
        self._mutate(mid_session_kb)
        assert _kb_bytes(mid_session_kb, tmp_path / "kb") != before
        assert _kb_bytes(clone, tmp_path / "after") == before

    def test_no_mutable_object_is_shared(self, mid_session_kb):
        kb = mid_session_kb
        clone = kb.copy()
        mutable = (dict, list, set, bytearray, np.ndarray, PairState)

        def containers(store: KnowledgeBase) -> dict[int, str]:
            found: dict[int, str] = {}
            for name, value in vars(store).items():
                if isinstance(value, mutable):
                    found[id(value)] = name
                if isinstance(value, dict):
                    for key, inner in value.items():
                        if isinstance(inner, mutable):
                            found[id(inner)] = f"{name}[{key!r}]"
            for pair in store.pairs():
                state = store._pairs[pair]
                found[id(state.record_ids)] = f"record_ids of {pair}"
            return found

        ours = containers(kb)
        shared = [name for key, name in containers(clone).items()
                  if key in ours]
        assert not shared


class TestCopySharesRecords:
    """Records are immutable values; copies share them, not their state."""

    def test_copy_holds_the_same_record_objects(self, mid_session_kb):
        kb = mid_session_kb
        clone = kb.copy()
        ours = list(kb.records(include_inactive=True))
        theirs = list(clone.records(include_inactive=True))
        assert len(ours) == len(theirs) == kb.num_records
        assert all(a is b for a, b in zip(ours, theirs))
        assert all(isinstance(r, ExtractionRecord) for r in ours)

    @staticmethod
    def _reads(kb: KnowledgeBase) -> tuple:
        return (
            [kb.is_active(rid) for rid in range(kb.num_records)],
            kb.dead_triggers(),
            kb_state(kb),
        )

    @pytest.mark.parametrize("side", ["copy", "original"])
    def test_rollback_never_shows_through(self, mid_session_kb, side):
        kb = mid_session_kb
        clone = kb.copy()
        target, other = (clone, kb) if side == "copy" else (kb, clone)
        before = self._reads(other)
        # The sole trigger of an active record: rolling it back kills a
        # fresh trigger and deactivates that record.
        pair = next(
            p for p in sorted(target.pairs())
            if any(r.triggers == (p,) for r in target.records_triggered_by(p))
        )
        result = RollbackEngine(target).rollback_pair(pair)
        assert result.records_rolled_back
        after = self._reads(target)
        assert after[0] != before[0]
        assert after[1] != before[1]
        assert after[2]["inactive"] != before[2]["inactive"]
        assert self._reads(other) == before
        shared = [
            rid for rid in result.records_rolled_back
            if target.record(rid) is other.record(rid)
        ]
        assert shared == result.records_rolled_back
