"""Instrumentation overhead: disabled tracing must cost <2% of any stage.

The disabled-path bound is computed analytically rather than by
subtracting two noisy end-to-end timings: we measure the per-call cost of
the no-op instrumentation primitives (``span``/``count``/``emit`` on an
untraced context), count how many instrumentation operations one
extraction actually performs (from a traced run of the same stage), and
assert ``n_ops × t_op < 2% × t_stage``.  That holds under machine noise
because ``t_op`` is nanoseconds while ``t_stage`` is seconds.

The enabled-tracing overhead is *recorded* (benchmark ``extra_info``) but
not asserted — it is expected to be small, not bounded.
"""

from __future__ import annotations

import time
import timeit

from repro.extraction import SemanticIterativeExtractor
from repro.runtime.context import RunContext
from repro.runtime.events import CleaningTriggered

from .conftest import make_pipeline, run_once

#: an "op" below bundles one span open/close, two counter adds, one
#: attribute set and one event emit — strictly more work than any real
#: instrumentation point performs per call.
OPS_BUNDLE = 5


def _null_op_seconds() -> float:
    """Per-bundle cost of the disabled instrumentation primitives."""
    ctx = RunContext()  # no tracer, no subscribers
    event = CleaningTriggered(reason="bench", staleness=0, drift=0.0)

    def bundle() -> None:
        with ctx.span("bench", stage="x") as span:
            span.set(n=1)
            span.add("counter", 2)
            span.add("counter")
            ctx.emit(event)

    iterations = 20_000
    return timeit.timeit(bundle, number=iterations) / iterations


def _traced_op_count(corpus, config) -> int:
    """Instrumentation ops one traced extraction performs (upper bound)."""
    ctx = RunContext()
    tracer = ctx.ensure_tracer()
    SemanticIterativeExtractor(config, context=ctx).run(corpus)
    spans = sum(1 for _ in tracer.spans())
    events = sum(len(span.events) for span in tracer.spans())
    counters = sum(len(span.counters) for span in tracer.spans())
    # Each span is one bundle; events/counters beyond the bundle's
    # allowance are counted again so the estimate stays conservative.
    return spans + events + counters


def test_bench_trace_overhead_disabled(benchmark):
    """Untraced instrumentation costs <2% of the extraction stage."""
    pipeline = make_pipeline()
    corpus = pipeline.corpus()
    config = pipeline.config.extraction

    def stage() -> float:
        extractor = SemanticIterativeExtractor(config)  # NULL_CONTEXT
        started = time.perf_counter()
        extractor.run(corpus)
        return time.perf_counter() - started

    stage_seconds = run_once(benchmark, stage)
    op_seconds = _null_op_seconds()
    op_count = _traced_op_count(corpus, config)
    overhead = op_count * op_seconds
    benchmark.extra_info["instrumentation_ops"] = op_count
    benchmark.extra_info["op_ns"] = round(op_seconds * 1e9, 1)
    benchmark.extra_info["overhead_fraction"] = overhead / stage_seconds
    assert overhead < 0.02 * stage_seconds, (
        f"{op_count} disabled instrumentation ops at "
        f"{op_seconds * 1e9:.0f}ns each = {overhead * 1e3:.1f}ms, over 2% "
        f"of the {stage_seconds * 1e3:.0f}ms extraction stage"
    )


def test_bench_trace_overhead_enabled(benchmark):
    """Record (not bound) the cost of running with a tracer attached."""
    pipeline = make_pipeline()
    corpus = pipeline.corpus()
    config = pipeline.config.extraction

    baseline_started = time.perf_counter()
    SemanticIterativeExtractor(config).run(corpus)
    baseline = time.perf_counter() - baseline_started

    def traced() -> None:
        ctx = RunContext()
        ctx.ensure_tracer()
        SemanticIterativeExtractor(config, context=ctx).run(corpus)

    run_once(benchmark, traced)
    traced_seconds = benchmark.stats["mean"]
    benchmark.extra_info["untraced_seconds"] = round(baseline, 4)
    benchmark.extra_info["enabled_overhead_ratio"] = round(
        traced_seconds / baseline, 4
    )
