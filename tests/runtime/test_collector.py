"""The bulk passes run with the cyclic collector paused, and that is safe.

:func:`repro.runtime.collector_paused` switches CPython's cyclic collector
off across the outermost bulk operations.  That only holds up while those
passes create no reference cycles: a cycle formed while the collector is
paused would outlive the pass until the next collection.  These tests pin
three things:

* the invariant — every pass, run with the collector off, leaves nothing
  for ``gc.collect()`` to find;
* the helper's contract — nesting, exceptions, and a collector the caller
  turned off;
* each of the five decorated sites really runs paused.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.cleaning import (
    DPCleaner,
    MutualExclusionCleaner,
    PRDualRankCleaner,
    RWRankCleaner,
    TypeCheckingCleaner,
)
from repro.extraction import IncrementalExtractor
from repro.learning import DPDetector
from repro.runtime import collector_paused
from repro.service import IngestPolicy

from ..service.conftest import make_pipeline

POLICY = IngestPolicy(
    staleness_threshold=600, drift_threshold=0.08, min_new_pairs=10
)


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts and ends with the collector on, whatever happens."""
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the collector disabled"


def _every_pass(pipeline, fresh, checkpoint) -> None:
    """Extraction, analysis, all five cleaners, a durable session, resume."""
    extraction = pipeline.extract()
    artifacts = pipeline.analyze(extraction)
    pipeline.dp_cleaner().clean(extraction.kb, extraction.corpus)
    baselines = [
        MutualExclusionCleaner(),
        TypeCheckingCleaner(artifacts.ner(accuracy=0.95)),
        PRDualRankCleaner(artifacts.seeds, artifacts.evidence),
        RWRankCleaner(artifacts.seeds),
    ]
    for cleaner in baselines:
        own = pipeline.extract()
        cleaner.clean(own.kb, own.corpus)
    session = pipeline.session(
        policy=POLICY, checkpoint_dir=checkpoint, checkpoint_every=1
    )
    for batch in pipeline.corpus().batches(400):
        session.ingest(batch)
    assert session.cleanings >= 1
    resumed = fresh.session(
        policy=POLICY, checkpoint_dir=checkpoint, resume=True
    )
    assert resumed.batches_ingested == session.batches_ingested


class TestNoCycles:
    def test_passes_leave_no_cyclic_garbage(self, tmp_path):
        pipeline = make_pipeline()
        pipeline.corpus()
        fresh = make_pipeline()
        gc.collect()
        flags = gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            # Everything the passes allocate is dropped when this returns,
            # and so are the pipelines with the sessions they opened;
            # reference counting alone must free all of it.
            _every_pass(pipeline, fresh, tmp_path / "state")
            del pipeline, fresh
            unreachable = gc.collect()
            garbage = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()
        assert unreachable == 0, (
            f"{unreachable} objects in reference cycles: "
            f"{garbage.most_common(20)}"
        )


class TestCollectorPaused:
    def test_pauses_and_restores(self):
        @collector_paused
        def probe(value):
            return value, gc.isenabled()

        assert probe(7) == (7, False)
        assert gc.isenabled()

    def test_nested_calls_keep_the_outermost_pause(self):
        @collector_paused
        def inner():
            return gc.isenabled()

        @collector_paused
        def outer():
            return gc.isenabled(), inner(), gc.isenabled()

        assert outer() == (False, False, False)
        assert gc.isenabled()

    def test_exception_restores_the_collector(self):
        @collector_paused
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            boom()
        assert gc.isenabled()

    def test_never_reenables_a_collector_the_caller_disabled(self):
        @collector_paused
        def probe():
            return gc.isenabled()

        gc.disable()
        try:
            assert probe() is False
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_keeps_the_wrapped_function_metadata(self):
        def documented():
            """Docs."""

        paused = collector_paused(documented)
        assert paused.__name__ == "documented"
        assert paused.__doc__ == "Docs."
        assert paused.__wrapped__ is documented


def _record(monkeypatch, owner, name: str) -> list[bool]:
    """``gc.isenabled()`` at every call of ``owner.name``."""
    seen: list[bool] = []
    inner = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


class TestSitesRunPaused:
    def test_pipeline_extract(self, monkeypatch):
        pipeline = make_pipeline()
        seen = _record(monkeypatch, IncrementalExtractor, "ingest")
        pipeline.extract()
        assert seen and not any(seen)

    def test_pipeline_analyze(self, monkeypatch):
        pipeline = make_pipeline()
        extraction = pipeline.extract()
        seen = _record(monkeypatch, DPDetector, "fit")
        pipeline.analyze(extraction)
        assert seen and not any(seen)

    def test_dp_cleaner_clean(self):
        pipeline = make_pipeline()
        extraction = pipeline.extract()
        seen: list[bool] = []

        def detect(_kb):
            seen.append(gc.isenabled())
            return {}

        DPCleaner(detect).clean(extraction.kb, extraction.corpus)
        assert seen and not any(seen)

    def test_session_ingest_and_restore(self, tmp_path, monkeypatch):
        pipeline = make_pipeline()
        never = IngestPolicy.never()
        batches = list(pipeline.corpus().batches(500))
        session = pipeline.session(
            policy=never,
            checkpoint_dir=tmp_path,
            checkpoint_every=len(batches) - 1,
        )
        recorded = _record(monkeypatch, IngestPolicy, "decide")
        for batch in batches:
            session.ingest(batch)
        assert len(recorded) == len(batches) and not any(recorded)

        fresh = make_pipeline()
        recorded = _record(monkeypatch, IncrementalExtractor, "ingest")
        restored = _record(monkeypatch, IncrementalExtractor, "restore")
        fresh.session(policy=never, checkpoint_dir=tmp_path, resume=True)
        # The snapshot covers all but the last batch; the journal replays it.
        assert recorded == [False] and restored == [False]
