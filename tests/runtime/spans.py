"""Span lookup for tests that inspect a tracer's forest."""

from __future__ import annotations

from repro.runtime.tracing import Span, Tracer


def find_span(tracer: Tracer, name: str) -> Span | None:
    """First span with the given name, depth-first across roots."""
    return next((span for span in tracer.spans() if span.name == name), None)
