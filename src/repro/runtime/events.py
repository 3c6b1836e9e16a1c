"""Typed event bus + the library's event taxonomy.

Every cross-stage notification in the library is a frozen dataclass
deriving from :class:`Event` and travels over an :class:`EventBus`.
Stages *emit*; whoever cares *subscribes* — the CLI renders progress
lines from :class:`BatchIngested`, and an attached tracer records every
event into the active span.  Events are observation only: no stage
subscribes to the bus to drive its own behaviour.

Design rules:

* event payloads are **primitives only** (ints, floats, strings, tuples)
  so the runtime layer never imports upward and every event serialises
  to JSON without help;
* publishing with no subscribers is close to free (one attribute check),
  so stages emit unconditionally;
* handlers run synchronously in publish order — the bus adds no threads
  and therefore no nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Callable

__all__ = [
    "Event",
    "EventBus",
    "ExtractionIteration",
    "DetectorFitted",
    "CleaningRound",
    "CleaningTriggered",
    "CleaningCompleted",
    "BatchExtracted",
    "DriftMeasured",
    "BatchIngested",
    "SessionResumed",
    "event_payload",
]


@dataclass(frozen=True)
class Event:
    """Marker base class for everything published on the bus."""


def event_payload(event: Event) -> dict:
    """The event's fields as a JSON-ready dict (shallow; fields are
    primitives by the taxonomy's design rule)."""
    return {f.name: getattr(event, f.name) for f in fields(event)}


class EventBus:
    """Synchronous publish/subscribe dispatch keyed by event type.

    Handlers subscribed to a base class receive subclass events too, so
    ``subscribe(Event, handler)`` observes everything.
    """

    __slots__ = ("_handlers", "_count")

    def __init__(self) -> None:
        self._handlers: dict[type, list[Callable[[Event], None]]] = {}
        self._count = 0

    @property
    def has_subscribers(self) -> bool:
        """Whether any handler is registered at all."""
        return self._count > 0

    def subscribe(
        self,
        event_type: type[Event],
        handler: Callable[[Event], None],
    ) -> Callable[[], None]:
        """Register ``handler`` for ``event_type`` (and its subclasses).

        Returns a zero-argument unsubscribe callable.
        """
        handlers = self._handlers.setdefault(event_type, [])
        handlers.append(handler)
        self._count += 1

        def unsubscribe() -> None:
            if handler in handlers:
                handlers.remove(handler)
                self._count -= 1

        return unsubscribe

    def publish(self, event: Event) -> None:
        """Dispatch ``event`` to every matching handler, in subscribe order."""
        if self._count == 0:
            return
        for klass in type(event).__mro__:
            for handler in self._handlers.get(klass, ()):
                handler(event)
            if klass is Event:
                break


# ----------------------------------------------------------------------
# Taxonomy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtractionIteration(Event):
    """One extraction iteration finished.

    ``sentences_skipped`` counts pool sentences the worklist never
    attempted this iteration (a naive full scan would have re-attempted
    each one) and ``index_hits`` counts attempts driven by an
    evidence-index wake rather than fresh arrival.
    ``sentences_scanned + sentences_skipped`` equals the naive scan count.
    """

    iteration: int
    sentences_scanned: int
    sentences_resolved: int
    new_pairs: int
    total_pairs: int
    trigger_fanout: int
    sentences_skipped: int = 0
    index_hits: int = 0


@dataclass(frozen=True)
class DetectorFitted(Event):
    """A DP detector finished fitting."""

    method: str
    concepts: int
    labelled_concepts: int
    transforms_reused: int
    manifolds_reused: int


@dataclass(frozen=True)
class CleaningRound(Event):
    """One DP-cleaning round finished."""

    round_index: int
    intentional_dps: int
    accidental_dps: int
    pairs_removed: int
    records_rolled_back: int
    sentence_checks: int


@dataclass(frozen=True)
class CleaningTriggered(Event):
    """The ingestion policy decided a cleaning pass is due."""

    reason: str
    staleness: int
    drift: float


@dataclass(frozen=True)
class CleaningCompleted(Event):
    """A full cleaning pass (all rounds) finished."""

    rounds: int
    pairs_removed: int
    records_rolled_back: int
    reason: str | None = None


@dataclass(frozen=True)
class BatchExtracted(Event):
    """One ingested batch finished extraction (before any cleaning)."""

    index: int
    sentences_seen: int
    sentences_new: int
    new_pairs: int
    total_pairs: int
    iterations_run: int


@dataclass(frozen=True)
class DriftMeasured(Event):
    """Drift telemetry for one ingested batch.

    ``per_concept`` is a tuple of ``(concept, new_pairs, conflicted)``
    triples so the event stays hashable and JSON-ready.
    """

    index: int
    new_pairs: int
    conflicted: int
    fraction: float
    per_concept: tuple[tuple[str, int, int], ...] = ()


@dataclass(frozen=True)
class BatchIngested(Event):
    """One batch fully committed (extraction + telemetry + cleaning)."""

    seq: int
    index: int
    sentences_seen: int
    sentences_new: int
    new_pairs: int
    total_pairs: int
    drift_fraction: float
    cleaned: bool
    clean_reason: str | None = None
    removed_pairs: int = 0
    replayed: bool = False


@dataclass(frozen=True)
class SessionResumed(Event):
    """A durable session finished restoring from its checkpoint dir."""

    batches: int
    cleanings: int
    total_pairs: int
