"""RunContext: the tracer only, null-context no-ops, trace wiring."""

from __future__ import annotations

import pytest

from repro.runtime.context import NULL_CONTEXT, RunContext

from .spans import find_span


class TestRunContext:
    def test_holds_only_the_tracer(self):
        ctx = RunContext()
        assert RunContext.__slots__ == ("tracer",)
        assert ctx.tracer is None

    def test_untraced_span_is_inert(self):
        ctx = RunContext()
        assert ctx.tracer is None
        with ctx.span("anything", key="value") as span:
            span.set(more=1)
            span.add("counter", 3)
        ctx.count("loose")  # no tracer: must be a silent no-op

    def test_ensure_tracer_turns_tracing_on(self):
        ctx = RunContext()
        tracer = ctx.ensure_tracer()
        assert ctx.ensure_tracer() is tracer
        with ctx.span("s") as span:
            span.add("n", 2)
        assert find_span(tracer, "s").counters == {"n": 2}

    def test_export_requires_a_tracer(self, tmp_path):
        with pytest.raises(ValueError):
            RunContext().export_trace(tmp_path / "t.jsonl")


class TestNullContext:
    def test_span_and_count_are_noops(self):
        with NULL_CONTEXT.span("s", a=1) as span:
            span.set(b=2)
            span.add("c")
            # Reentrant: nesting through the same shared object is fine.
            with NULL_CONTEXT.span("inner"):
                pass
        NULL_CONTEXT.count("n", 5)
        assert NULL_CONTEXT.tracer is None

    def test_cannot_attach_a_tracer(self):
        with pytest.raises(ValueError):
            NULL_CONTEXT.ensure_tracer()
