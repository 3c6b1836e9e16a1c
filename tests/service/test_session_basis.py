"""One detector embedding per session, refitted on the scheduled signal.

A session owns one :class:`~repro.learning.detector.DetectorRefitCache`.
A drift pass fits under it, so only the session's first pass fits a
KPCA basis; a staleness or forced pass starts a fresh cache and refits.
No basis crosses from one session, or from a one-shot cleaner, into
another session on the same pipeline.  Fits are counted as
``detector.embed`` spans with ``fitted=True``.
"""

from __future__ import annotations

import pytest

from repro.service import IngestPolicy

from .conftest import EVERY_BATCH, make_pipeline

BATCH_SIZE = 150


def _fits(root) -> int:
    """Basis fits under one root span."""
    return sum(
        span.name == "detector.embed" and span.attributes["fitted"]
        for span in root.walk()
    )


def _traced_pipeline():
    pipeline = make_pipeline()
    return pipeline, pipeline.context.ensure_tracer()


def _ingest(session, batches, tracer, **kwargs):
    """Ingest ``batches``; per batch, its pass's trigger and basis fits."""
    passes = []
    for batch in batches:
        report = session.ingest(batch, **kwargs)
        if report.cleaning is not None:
            passes.append((report.cleaning.reason, _fits(tracer.roots[-1])))
    return passes


@pytest.fixture(scope="module")
def batches(service_corpus):
    return list(service_corpus.batches(BATCH_SIZE))


class TestRefitRule:
    def test_default_policy_session_fits_once(self, batches):
        pipeline, tracer = _traced_pipeline()
        passes = _ingest(pipeline.session(), batches, tracer)
        assert [reason for reason, _ in passes].count("drift") >= 3
        assert {reason for reason, _ in passes} == {"drift"}
        assert [fits for _, fits in passes] == [1] + [0] * (len(passes) - 1)

    def test_staleness_threshold_zero_fits_every_pass(self, batches):
        pipeline, tracer = _traced_pipeline()
        passes = _ingest(
            pipeline.session(policy=EVERY_BATCH), batches[:4], tracer
        )
        assert passes == [("staleness", 1)] * 4

    def test_forced_pass_refits_and_later_drift_passes_reuse_it(
        self, batches
    ):
        pipeline, tracer = _traced_pipeline()
        session = pipeline.session()
        before = _ingest(session, batches[:4], tracer)
        assert before and before[0] == ("drift", 1)
        forced = _ingest(session, [[]], tracer, force_clean=True)
        assert forced == [("forced", 1)]
        after = _ingest(session, batches[4:], tracer)
        assert after and all(fits == 0 for _, fits in after)


class TestNoLeak:
    """A session on a used pipeline cleans as one on a fresh pipeline."""

    @pytest.fixture(scope="class")
    def reference(self, batches):
        pipeline, tracer = _traced_pipeline()
        session = pipeline.session()
        passes = _ingest(session, batches, tracer)
        assert passes[0] == ("drift", 1)
        return passes, [r.to_dict() for r in session.reports]

    def test_two_sessions_on_one_pipeline_fit_their_own_basis(
        self, batches, reference
    ):
        pipeline, tracer = _traced_pipeline()
        _ingest(pipeline.session(), batches, tracer)
        second = pipeline.session()
        assert _ingest(second, batches, tracer) == reference[0]
        assert [r.to_dict() for r in second.reports] == reference[1]

    def test_one_shot_clean_before_a_session_leaks_no_basis(
        self, batches, reference
    ):
        pipeline, tracer = _traced_pipeline()
        extraction = pipeline.extract()
        pipeline.dp_cleaner().clean(extraction.kb, extraction.corpus)
        assert _fits(tracer.roots[-1]) == 1
        session = pipeline.session()
        assert _ingest(session, batches, tracer) == reference[0]
        assert [r.to_dict() for r in session.reports] == reference[1]


def test_cleaning_off_session_writes_no_basis(batches, tmp_path):
    session = make_pipeline().session(
        policy=IngestPolicy.never(), checkpoint_dir=tmp_path,
        checkpoint_every=2,
    )
    for batch in batches[:5]:
        session.ingest(batch)
    assert not list(tmp_path.rglob("*.npz"))
