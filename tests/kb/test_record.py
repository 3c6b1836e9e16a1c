"""Tests for extraction records."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.kb import IsAPair, KnowledgeBase
from repro.kb.record import ExtractionRecord

CHICKEN, DUCK = IsAPair("animal", "chicken"), IsAPair("animal", "duck")


def _record(**overrides):
    base = dict(
        rid=0,
        sid=10,
        concept="animal",
        instances=("pork", "beef"),
        triggers=(IsAPair("animal", "chicken"),),
        iteration=2,
    )
    base.update(overrides)
    return ExtractionRecord(**base)


def _committed(triggers):
    """A KB whose record 1 extracts pork and beef, triggered by ``triggers``.

    Record 0 is the root that extracted chicken and duck.
    """
    kb = KnowledgeBase()
    kb.add_extraction(0, "animal", ("chicken", "duck"), iteration=1)
    record = kb.add_extraction(
        10, "animal", ("pork", "beef"), triggers=triggers, iteration=2
    )
    return kb, record.rid


class TestExtractionRecord:
    def test_produced_pairs(self):
        record = _record()
        assert record.produced == (
            IsAPair("animal", "pork"),
            IsAPair("animal", "beef"),
        )

    def test_trigger_instances(self):
        assert _record().trigger_instances == ("chicken",)

    def test_kill_trigger_orphans_when_last(self):
        kb, rid = _committed((CHICKEN,))
        assert kb.kill_trigger(rid, CHICKEN)
        assert kb.dead_triggers() == {rid: (CHICKEN,)}

    def test_kill_trigger_partial(self):
        kb, rid = _committed((CHICKEN, DUCK))
        assert not kb.kill_trigger(rid, CHICKEN)
        assert kb.dead_triggers() == {rid: (CHICKEN,)}

    def test_dead_triggers_follow_trigger_order(self):
        kb, rid = _committed((CHICKEN, DUCK))
        assert kb.dead_triggers() == {}
        assert not kb.kill_trigger(rid, DUCK)
        assert kb.kill_trigger(rid, CHICKEN)
        assert kb.dead_triggers() == {rid: (CHICKEN, DUCK)}

    def test_kill_unknown_trigger_is_noop(self):
        kb, rid = _committed((CHICKEN,))
        assert not kb.kill_trigger(rid, IsAPair("animal", "ghost"))
        assert kb.dead_triggers() == {}

    def test_root_record_never_orphaned(self):
        kb, _ = _committed((CHICKEN,))
        assert not kb.kill_trigger(0, CHICKEN)
        assert kb.dead_triggers() == {}

    def test_records_are_immutable(self):
        record = _record()
        with pytest.raises(FrozenInstanceError):
            record.iteration = 3
        assert not hasattr(record, "__dict__")

    def test_trigger_concept_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _record(triggers=(IsAPair("food", "chicken"),))

    def test_bad_iteration_rejected(self):
        with pytest.raises(ValueError):
            _record(iteration=0)
