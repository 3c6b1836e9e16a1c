"""Tracing is observation-only: traced and untraced runs are bit-identical.

One small end-to-end run (corpus → extraction → analysis → detector →
DP cleaning) executed twice — once with a tracer attached, once without —
must serialise to byte-identical knowledge bases.  The traced run's span
tree must also cover every stage with nonzero counters, which is the
acceptance shape for ``repro run --trace``.
"""

from __future__ import annotations

import pytest

from repro.experiments.pipeline import Pipeline, experiment_config
from repro.kb.serialize import save_kb
from repro.runtime.context import NULL_CONTEXT
from repro.runtime.tracing import read_trace
from repro.world.presets import paper_world

from ..service.conftest import drift_totals
from .spans import find_span

SCALE = 0.5
SENTENCES = 1500
SEED = 20140324


def make_pipeline() -> Pipeline:
    preset = paper_world(seed=SEED, scale=SCALE)
    config = experiment_config(
        num_sentences=SENTENCES, seed=SEED, profiles=preset.profiles
    )
    return Pipeline(preset=preset, config=config)


def run_and_clean(pipeline: Pipeline, trace=None):
    """Full pipeline run plus one DP-cleaning pass."""
    artifacts = pipeline.run(trace=None if trace is None else str(trace))
    cleaner = pipeline.dp_cleaner()
    result = cleaner.clean(artifacts.kb, artifacts.corpus)
    # Export again so the trace includes the cleaning spans too.
    if trace is not None:
        pipeline.context.export_trace(trace)
    return artifacts, result


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    artifacts, result = run_and_clean(make_pipeline(), trace=trace_path)
    return artifacts, result, trace_path


@pytest.fixture(scope="module")
def untraced_run():
    return run_and_clean(make_pipeline())


class TestBitIdentity:
    def test_traced_and_untraced_kbs_are_byte_identical(
        self, traced_run, untraced_run, tmp_path
    ):
        traced_artifacts = traced_run[0]
        untraced_artifacts = untraced_run[0]
        a, b = tmp_path / "traced.json", tmp_path / "untraced.json"
        save_kb(traced_artifacts.kb, a)
        save_kb(untraced_artifacts.kb, b)
        assert a.read_bytes() == b.read_bytes()

    def test_cleaning_results_match(self, traced_run, untraced_run):
        traced_result = traced_run[1]
        untraced_result = untraced_run[1]
        assert traced_result.removed_pairs == untraced_result.removed_pairs
        assert traced_result.rounds == untraced_result.rounds


class TestTraceCoverage:
    """The exported span tree covers every stage (acceptance shape)."""

    @pytest.fixture(scope="class")
    def records(self, traced_run):
        return read_trace(traced_run[2])

    @pytest.fixture(scope="class")
    def spans(self, records):
        return [r for r in records if r["kind"] == "span"]

    def test_header_counts_spans(self, records, spans):
        assert records[0]["kind"] == "trace"
        assert records[0]["spans"] == len(spans)

    def test_every_stage_has_a_span(self, spans):
        names = {span["name"] for span in spans}
        assert {
            "corpus.generate",
            "extract",
            "extract.iteration",
            "analysis.build",
            "analysis.refresh",
            "rank.batch",
            "detector.fit",
            "detector.embed",
            "detector.train",
            "clean",
            "clean.round",
        } <= names

    def test_extraction_iterations_have_nonzero_counters(self, spans):
        iterations = [s for s in spans if s["name"] == "extract.iteration"]
        assert len(iterations) >= 2
        assert sum(
            s["counters"].get("sentences_scanned", 0) for s in iterations
        ) > 0
        assert sum(
            s["counters"].get("pairs_committed", 0) for s in iterations
        ) > 0

    def test_detector_fits_report_concepts(self, spans):
        fits = [s for s in spans if s["name"] == "detector.fit"]
        assert fits and all(s["attributes"]["concepts"] > 0 for s in fits)
        embeds = [s for s in spans if s["name"] == "detector.embed"]
        assert sum(
            s["counters"].get("transforms_computed", 0)
            + s["counters"].get("transforms_reused", 0)
            for s in embeds
        ) > 0

    def test_cleaning_rounds_have_activity(self, spans):
        rounds = [s for s in spans if s["name"] == "clean.round"]
        assert rounds
        assert sum(
            s["counters"].get("pairs_removed", 0) for s in rounds
        ) > 0

    def test_cleaning_spans_nest_under_clean(self, spans):
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["name"] == "clean.round":
                assert by_id[span["parent"]]["name"] == "clean"

    def test_round_reuse_and_iteration_counters_are_on_spans(self, spans):
        expected = {
            "clean.round": {
                "intentional_dps", "accidental_dps", "pairs_removed",
                "records_rolled_back", "sentence_checks",
            },
            "detector.embed": {"transforms_reused", "transforms_computed"},
            "detector.datasets": {"manifolds_reused", "manifolds_computed"},
            "extract.iteration": {
                "sentences_scanned", "sentences_resolved", "pairs_committed",
            },
        }
        for name, counters in expected.items():
            named = [s for s in spans if s["name"] == name]
            assert named, name
            assert all(counters <= set(s["counters"]) for s in named), name


def durable_session_run(tmp_path, traced: bool):
    """Ingest in four batches with a snapshot every second one, then resume.

    Returns the live and the resumed KB bytes plus the resumed pipeline's
    trace records (``None`` untraced).
    """
    from repro.service import IngestPolicy

    live_pipeline, resume_pipeline = make_pipeline(), make_pipeline()
    if traced:
        live_pipeline.context.ensure_tracer()
        resume_pipeline.context.ensure_tracer()
    ckpt = tmp_path / ("traced" if traced else "untraced")
    session = live_pipeline.session(
        policy=IngestPolicy.never(), checkpoint_dir=ckpt, checkpoint_every=2
    )
    for batch in live_pipeline.corpus().shards(5):
        session.ingest(batch)
    resumed = resume_pipeline.session(
        policy=IngestPolicy.never(), checkpoint_dir=ckpt, resume=True
    )
    out = {"pairs": len(resumed.kb)}
    for name, kb in (("live", session.kb), ("resumed", resumed.kb)):
        path = tmp_path / f"{ckpt.name}-{name}.jsonl"
        save_kb(kb, path)
        out[name] = path.read_bytes()
    if traced:
        for name, pipeline in (("live", live_pipeline),
                               ("resume", resume_pipeline)):
            trace = tmp_path / f"{name}-trace.jsonl"
            pipeline.context.export_trace(trace)
            out[f"{name}_spans"] = [
                r for r in read_trace(trace) if r["kind"] == "span"
            ]
    return out


class TestDurabilitySpans:
    """Journal appends, snapshots and resume each have a span."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("durable")
        return durable_session_run(tmp, True), durable_session_run(tmp, False)

    def test_traced_and_untraced_durable_kbs_are_byte_identical(self, runs):
        traced, untraced = runs
        assert traced["live"] == untraced["live"] == traced["resumed"]
        assert untraced["resumed"] == untraced["live"]

    def test_journal_and_snapshot_spans_carry_counters(self, runs):
        spans = runs[0]["live_spans"]
        appends = [s for s in spans if s["name"] == "journal.append"]
        saves = [s for s in spans if s["name"] == "checkpoint.save"]
        assert len(appends) == 5
        assert all(s["counters"]["bytes"] > 0 for s in appends)
        assert len(saves) == 2
        for save in saves:
            counters = save["counters"]
            assert counters["records_written"] > 0
            assert counters["sentences_written"] > 0
            assert counters["bytes_written"] > 0
            assert counters["fsyncs"] >= 8
        assert saves[0]["counters"].get("segments_linked", 0) == 0
        # The first snapshot's string table, record columns and its two
        # batches' sentences files.
        assert saves[1]["counters"]["segments_linked"] == 4
        batches = [s for s in spans if s["name"] == "checkpoint.sentences"]
        assert len(batches) == 5
        assert all(s["counters"]["bytes"] > 0 for s in batches)
        by_id = {s["id"]: s for s in spans}
        for span in appends + saves + batches:
            assert by_id[span["parent"]]["name"] == "ingest.batch"

    def test_resume_spans_nest_under_restore(self, runs):
        spans = runs[0]["resume_spans"]
        by_id = {s["id"]: s for s in spans}
        restore = [s for s in spans if s["name"] == "session.restore"]
        assert len(restore) == 1
        children = {
            s["name"]: s for s in spans
            if s["parent"] == restore[0]["id"]
        }
        assert {"checkpoint.load", "journal.replay"} <= set(children)
        assert children["journal.replay"]["counters"]["entries"] == 1
        assert restore[0]["attributes"] == {
            "batches": 5, "cleanings": 0, "total_pairs": runs[0]["pairs"],
        }


def observed_session_run(tmp_path, observed: bool):
    """A cleaning session in five batches plus a cold resume of it.

    Unobserved, the session runs on the null context, so every span is
    dropped; observed, it runs on its pipeline's context with a tracer
    attached.  Returns the live and resumed sessions and the checkpoint
    files.
    """
    from repro.service import IngestPolicy, IngestSession

    ckpt = tmp_path / ("observed" if observed else "unobserved")

    def open_session(**kwargs):
        pipeline = make_pipeline()
        if observed:
            pipeline.context.ensure_tracer()
            return pipeline, pipeline.session(
                policy=IngestPolicy(), checkpoint_dir=ckpt, **kwargs
            )
        return pipeline, IngestSession(
            config=pipeline.config,
            cleaner_factory=pipeline.dp_cleaner,
            policy=IngestPolicy(),
            analysis=pipeline.analysis,
            checkpoint_dir=ckpt,
            context=None,
            **kwargs,
        )

    pipeline, live = open_session(checkpoint_every=2)
    for batch in pipeline.corpus().shards(5):
        live.ingest(batch)
    files = {
        str(path.relative_to(ckpt)): path.read_bytes()
        for path in sorted(ckpt.rglob("*"))
        if path.is_file()
    }
    _, resumed = open_session(resume=True)
    return live, resumed, files


def session_kb_bytes(session, path) -> bytes:
    save_kb(session.kb, path)
    return path.read_bytes()


class TestSessionObservation:
    """Spans are observation-only for the streaming service too."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("observation")
        return (
            observed_session_run(tmp, observed=False),
            observed_session_run(tmp, observed=True),
        )

    def test_null_context_and_observed_sessions_are_identical(
        self, runs, tmp_path
    ):
        (plain, _, plain_files), (seen, _, seen_files) = runs
        assert plain.context is NULL_CONTEXT
        assert seen.context.tracer is not None
        assert plain.cleanings == seen.cleanings == 4
        assert plain.reports == seen.reports
        assert plain.stats() == seen.stats()
        assert drift_totals(plain) == drift_totals(seen)
        assert session_kb_bytes(plain, tmp_path / "plain.json") == (
            session_kb_bytes(seen, tmp_path / "seen.json")
        )
        assert plain_files == seen_files

    def test_cold_resume_matches_the_live_session(self, runs, tmp_path):
        for name, (live, resumed, _) in zip(("plain", "seen"), runs):
            assert session_kb_bytes(live, tmp_path / f"{name}-live.json") == (
                session_kb_bytes(resumed, tmp_path / f"{name}-resumed.json")
            )
            assert resumed.reports == live.reports
            assert resumed.staleness == live.staleness
            assert resumed.cleanings == live.cleanings
            # Same totals in the same key order.
            assert list(drift_totals(resumed).items()) == list(
                drift_totals(live).items()
            )

    def test_batch_spans_carry_each_report(self, runs):
        live = runs[1][0]
        batches = [
            span for span in live.context.tracer.spans()
            if span.name == "ingest.batch"
        ]
        assert len(batches) == len(live.reports) == 5
        for span, report in zip(batches, live.reports):
            expected = {
                "seq": report.seq,
                "drift_fraction": report.drift.fraction,
                "conflicted": report.drift.conflicted,
                "total_pairs": report.total_pairs,
                "iterations_run": report.iterations_run,
            }
            if report.cleaning is not None:
                expected["clean_reason"] = report.cleaning.reason
                expected["staleness"] = span.attributes["staleness"]
                assert expected["staleness"] > 0
            assert span.attributes == expected

    def test_restore_span_carries_the_resume_totals(self, runs):
        live, resumed, _ = runs[1]
        restore = find_span(resumed.context.tracer, "session.restore")
        assert restore.attributes == {
            "batches": 5,
            "cleanings": live.cleanings,
            "total_pairs": len(live.kb),
        }
