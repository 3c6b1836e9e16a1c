"""repro.runtime — run context and span tracing.

The foundation layer every stage threads its instrumentation through; it
also owns the cyclic-collector policy (:func:`collector_paused`).
See DESIGN.md §8 ("Runtime & observability") for the layer diagram, the
span names and the import-direction rules this package anchors.
"""

from .collector import collector_paused
from .context import NULL_CONTEXT, RunContext
from .tracing import (
    TRACE_SCHEMA_VERSION,
    Span,
    SpanSummary,
    Tracer,
    read_trace,
    summarize_trace,
)

__all__ = [
    "collector_paused",
    "NULL_CONTEXT",
    "RunContext",
    "Span",
    "SpanSummary",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "read_trace",
    "summarize_trace",
]
