"""Event bus: dispatch order, MRO fan-out, unsubscribe, payloads."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.runtime.events import (
    BatchIngested,
    CleaningTriggered,
    Event,
    EventBus,
    event_payload,
)


@dataclass(frozen=True)
class Note(Event):
    """A test-local event."""

    message: str


class TestEventBus:
    def test_publish_without_subscribers_is_silent(self):
        bus = EventBus()
        assert not bus.has_subscribers
        bus.publish(Note("nothing listens"))  # must not raise

    def test_handlers_run_in_subscribe_order(self):
        bus = EventBus()
        seen: list[str] = []
        bus.subscribe(Note, lambda e: seen.append("first"))
        bus.subscribe(Note, lambda e: seen.append("second"))
        bus.subscribe(Note, lambda e: seen.append("third"))
        bus.publish(Note("go"))
        assert seen == ["first", "second", "third"]

    def test_events_delivered_in_publish_order(self):
        bus = EventBus()
        seen: list[str] = []
        bus.subscribe(Note, lambda e: seen.append(e.message))
        for i in range(5):
            bus.publish(Note(f"m{i}"))
        assert seen == [f"m{i}" for i in range(5)]

    def test_base_class_subscription_sees_subclasses(self):
        bus = EventBus()
        seen: list[Event] = []
        bus.subscribe(Event, seen.append)
        log = Note("hello")
        trigger = CleaningTriggered(reason="drift", staleness=3, drift=0.2)
        bus.publish(log)
        bus.publish(trigger)
        assert seen == [log, trigger]

    def test_specific_subscription_ignores_other_types(self):
        bus = EventBus()
        seen: list[Event] = []
        bus.subscribe(Note, seen.append)
        bus.publish(CleaningTriggered(reason="drift", staleness=1, drift=0.5))
        assert seen == []

    def test_specific_handler_runs_before_base_handler(self):
        bus = EventBus()
        seen: list[str] = []
        bus.subscribe(Event, lambda e: seen.append("base"))
        bus.subscribe(Note, lambda e: seen.append("specific"))
        bus.publish(Note("x"))
        # MRO dispatch: the concrete class's handlers fire first.
        assert seen == ["specific", "base"]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen: list[Event] = []
        unsubscribe = bus.subscribe(Note, seen.append)
        bus.publish(Note("one"))
        unsubscribe()
        assert not bus.has_subscribers
        bus.publish(Note("two"))
        assert len(seen) == 1

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        unsubscribe = bus.subscribe(Note, lambda e: None)
        unsubscribe()
        unsubscribe()
        assert not bus.has_subscribers


class TestEventPayloads:
    def test_payload_is_field_dict(self):
        event = CleaningTriggered(reason="staleness", staleness=7, drift=0.1)
        assert event_payload(event) == {
            "reason": "staleness",
            "staleness": 7,
            "drift": 0.1,
        }

    def test_taxonomy_payloads_are_json_serialisable(self):
        events = [
            Note("msg"),
            BatchIngested(
                seq=1, index=0, sentences_seen=10, sentences_new=8,
                new_pairs=5, total_pairs=5, drift_fraction=0.0,
                cleaned=True, clean_reason="forced", removed_pairs=2,
            ),
        ]
        for event in events:
            json.dumps(event_payload(event))  # must not raise

    def test_events_are_immutable(self):
        event = Note("fixed")
        with pytest.raises(AttributeError):
            event.message = "changed"
