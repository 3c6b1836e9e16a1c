"""repro.runtime — run context, typed event bus, span tracing.

The foundation layer every stage threads its instrumentation through.
See DESIGN.md §8 ("Runtime & observability") for the layer diagram, the
event taxonomy and the import-direction rules this package anchors.
"""

from .context import NULL_CONTEXT, RunContext, SharedResources
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
    LogEvent,
    SessionResumed,
    event_payload,
)
from .tracing import TRACE_SCHEMA_VERSION, Span, Tracer, read_trace

__all__ = [
    "NULL_CONTEXT",
    "RunContext",
    "SharedResources",
    "Event",
    "EventBus",
    "event_payload",
    "LogEvent",
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
