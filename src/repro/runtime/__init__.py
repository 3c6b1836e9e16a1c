"""repro.runtime — run context, typed event bus, span tracing.

The foundation layer every stage threads its instrumentation through; it
also owns the cyclic-collector policy (:func:`collector_paused`).
See DESIGN.md §8 ("Runtime & observability") for the layer diagram, the
event taxonomy and the import-direction rules this package anchors.
"""

from .collector import collector_paused
from .context import NULL_CONTEXT, RunContext
from .events import (
    BatchExtracted,
    BatchIngested,
    CleaningCompleted,
    CleaningRound,
    CleaningTriggered,
    DetectorFitted,
    DriftMeasured,
    Event,
    EventBus,
    ExtractionIteration,
    SessionResumed,
    event_payload,
)
from .tracing import TRACE_SCHEMA_VERSION, Span, Tracer, read_trace

__all__ = [
    "collector_paused",
    "NULL_CONTEXT",
    "RunContext",
    "Event",
    "EventBus",
    "event_payload",
    "ExtractionIteration",
    "DetectorFitted",
    "CleaningRound",
    "CleaningTriggered",
    "CleaningCompleted",
    "BatchExtracted",
    "DriftMeasured",
    "BatchIngested",
    "SessionResumed",
    "Span",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "read_trace",
]
