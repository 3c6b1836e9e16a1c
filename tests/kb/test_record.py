"""Tests for extraction records."""

from __future__ import annotations

import pytest

from repro.kb import IsAPair
from repro.kb.record import ExtractionRecord


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


class TestExtractionRecord:
    def test_produced_pairs(self):
        record = _record()
        assert record.produced == (
            IsAPair("animal", "pork"),
            IsAPair("animal", "beef"),
        )

    def test_trigger_instances(self):
        assert _record().trigger_instances == ("chicken",)

    def test_root_records_have_no_triggers(self):
        record = _record(triggers=(), iteration=1)
        assert record.is_root

    def test_kill_trigger_orphans_when_last(self):
        record = _record()
        orphaned = record.kill_trigger(IsAPair("animal", "chicken"))
        assert orphaned
        assert record.alive_triggers() == ()

    def test_kill_trigger_partial(self):
        record = _record(
            triggers=(IsAPair("animal", "chicken"), IsAPair("animal", "duck"))
        )
        assert not record.kill_trigger(IsAPair("animal", "chicken"))
        assert record.alive_triggers() == (IsAPair("animal", "duck"),)

    def test_dead_triggers_follow_trigger_order(self):
        chicken, duck = IsAPair("animal", "chicken"), IsAPair("animal", "duck")
        record = _record(triggers=(chicken, duck))
        assert record.dead_triggers() == ()
        record.kill_trigger(duck)
        record.kill_trigger(chicken)
        assert record.dead_triggers() == (chicken, duck)
        assert record.alive_triggers() == ()

    def test_kill_unknown_trigger_is_noop(self):
        record = _record()
        assert not record.kill_trigger(IsAPair("animal", "ghost"))

    def test_root_record_never_orphaned(self):
        record = _record(triggers=(), iteration=1)
        assert not record.kill_trigger(IsAPair("animal", "chicken"))

    def test_trigger_concept_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _record(triggers=(IsAPair("food", "chicken"),))

    def test_bad_iteration_rejected(self):
        with pytest.raises(ValueError):
            _record(iteration=0)
