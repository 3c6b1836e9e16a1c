"""Tracer: span nesting, ordering, counters, JSONL round-trip, schema,
and the cost of the instrumentation when no tracer is attached."""

from __future__ import annotations

import time
import timeit

from repro.extraction import SemanticIterativeExtractor
from repro.runtime.context import RunContext
from repro.runtime.tracing import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    read_trace,
)

from .spans import find_span


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                with tracer.span("leaf"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == [
            "inner-a", "inner-b",
        ]
        assert [s.name for s in outer.children[1].children] == ["leaf"]
        assert tracer.current is None

    def test_walk_is_depth_first_in_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
        assert [s.name for s in tracer.spans()] == ["a", "b", "c", "d"]

    def test_timings_close_with_the_span(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            assert span.wall_ms is None
        assert span.wall_ms is not None and span.wall_ms >= 0
        assert span.cpu_ms is not None and span.cpu_ms >= 0

    def test_attributes_and_counters(self):
        tracer = Tracer()
        with tracer.span("s", mode="fast") as span:
            span.set(items=3)
            span.add("hits")
            span.add("hits", 2)
        assert span.attributes == {"mode": "fast", "items": 3}
        assert span.counters == {"hits": 3}

    def test_counts_outside_any_span_land_in_loose_pool(self):
        tracer = Tracer()
        tracer.count("orphan", 5)
        with tracer.span("s"):
            tracer.count("scoped", 1)
        assert tracer.loose_counters == {"orphan": 5}
        assert find_span(tracer, "s").counters == {"scoped": 1}

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        try:
            with tracer.span("fails"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        span = find_span(tracer, "fails")
        assert span.wall_ms is not None
        assert tracer.current is None


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", stage="x") as root:
            root.add("n", 7)
            with tracer.span("child"):
                pass
        tracer.count("loose", 2)
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        records = read_trace(path)
        header, spans, trailer = records[0], records[1:-1], records[-1]
        assert header == {
            "kind": "trace",
            "schema": TRACE_SCHEMA_VERSION,
            "spans": 2,
        }
        assert [r["name"] for r in spans] == ["root", "child"]
        assert spans[0]["attributes"] == {"stage": "x"}
        assert spans[0]["counters"] == {"n": 7}
        assert spans[1]["parent"] == spans[0]["id"]
        assert trailer == {
            "kind": "counters",
            "schema": TRACE_SCHEMA_VERSION,
            "counters": {"loose": 2},
        }

    def test_pinned_span_record_fields(self, tmp_path):
        """The span record schema is a public contract — do not drift."""
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        (record,) = [r for r in read_trace(path) if r["kind"] == "span"]
        assert sorted(record) == [
            "attributes",
            "counters",
            "cpu_ms",
            "id",
            "kind",
            "name",
            "parent",
            "schema",
            "start",
            "wall_ms",
        ]
        assert record["schema"] == TRACE_SCHEMA_VERSION == 2

    def test_no_trailer_without_loose_counters(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        records = read_trace(tracer.export_jsonl(tmp_path / "t.jsonl"))
        assert [r["kind"] for r in records] == ["trace", "span"]


def null_bundle_seconds() -> float:
    """Per-call cost of one bundle of untraced instrumentation.

    A bundle opens and closes a span, sets an attribute and adds two
    counters — strictly more work than any real instrumentation point
    performs per call.
    """
    ctx = RunContext()  # no tracer

    def bundle() -> None:
        with ctx.span("overhead", stage="x") as span:
            span.set(n=1)
            span.add("counter", 2)
            span.add("counter")

    calls = 20_000
    return timeit.timeit(bundle, number=calls) / calls


class TestDisabledOverhead:
    def test_untraced_instrumentation_costs_under_2pct_of_extraction(
        self, small_pipeline
    ):
        """``n_ops × t_op < 2%`` of an untraced extraction.

        Bounded analytically rather than by subtracting two noisy
        end-to-end timings: ``t_op`` is under a microsecond while the
        stage takes hundreds of milliseconds.
        """
        corpus = small_pipeline.corpus()
        config = small_pipeline.config.extraction
        started = time.perf_counter()
        SemanticIterativeExtractor(config).run(corpus)
        stage_seconds = time.perf_counter() - started

        # A traced run of the same stage counts its instrumentation ops:
        # one bundle per span, plus one per counter so the estimate stays
        # conservative.
        ctx = RunContext()
        tracer = ctx.ensure_tracer()
        SemanticIterativeExtractor(config, context=ctx).run(corpus)
        spans = list(tracer.spans())
        op_count = sum(
            1 + len(span.counters) for span in spans
        )
        op_seconds = null_bundle_seconds()
        overhead = op_count * op_seconds
        assert overhead < 0.02 * stage_seconds, (
            f"{op_count} disabled instrumentation ops at "
            f"{op_seconds * 1e9:.0f}ns each = {overhead * 1e3:.1f}ms, over "
            f"2% of the {stage_seconds * 1e3:.0f}ms extraction stage"
        )
