"""Tests for the streaming ingestion session."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.service import IngestPolicy

from .conftest import EVERY_BATCH, drift_totals, make_pipeline


@pytest.fixture(scope="module")
def quiet_session_run(service_corpus):
    """One four-batch run with cleaning disabled, reused read-only."""
    pipeline = make_pipeline()
    session = pipeline.session(policy=IngestPolicy.never())
    reports = [session.ingest(b) for b in service_corpus.batches(400)]
    return session, reports


class TestIngest:
    def test_batches_accumulate(self, quiet_session_run, service_corpus):
        session, reports = quiet_session_run
        assert session.batches_ingested == len(reports)
        assert [r.index for r in reports] == list(range(len(reports)))
        assert [r.seq for r in reports] == list(
            range(1, len(reports) + 1)
        )
        total_new = sum(r.sentences_new for r in reports)
        assert total_new == len(session.corpus())
        assert total_new <= len(service_corpus)
        assert len(session.kb) > 1000

    def test_duplicates_skipped_across_batches(self, quiet_session_run,
                                               service_corpus):
        session, _ = quiet_session_run
        pipeline = make_pipeline()
        replayed = pipeline.session(policy=IngestPolicy.never())
        replayed.ingest(service_corpus)
        report = replayed.ingest(service_corpus)  # everything is a dup now
        assert report.sentences_new == 0
        assert report.new_pairs == 0
        assert report.drift.fraction == 0.0

    def test_staleness_accumulates_without_cleaning(self, quiet_session_run):
        session, reports = quiet_session_run
        assert session.staleness == sum(r.sentences_new for r in reports)
        assert session.cleanings == 0
        assert all(r.cleaning is None for r in reports)

    def test_drift_telemetry_populated(self, quiet_session_run):
        session, reports = quiet_session_run
        # The synthetic world plants drifting errors, so some fraction of
        # new pairs must land in mutually exclusive concepts.
        assert any(r.drift.conflicted > 0 for r in reports)
        for report in reports:
            drift = report.drift
            assert 0.0 <= drift.fraction <= 1.0
            assert drift.conflicted <= drift.new_pairs
            assert sum(c[0] for c in drift.per_concept.values()) == (
                drift.new_pairs
            )
            assert sum(c[1] for c in drift.per_concept.values()) == (
                drift.conflicted
            )
        totals = drift_totals(session)
        assert sum(c[1] for c in totals.values()) == sum(
            r.drift.conflicted for r in reports
        )

    def test_stats_summary(self, quiet_session_run):
        session, reports = quiet_session_run
        stats = session.stats()
        assert stats["batches"] == len(reports)
        assert stats["cleanings"] == 0
        assert stats["converged"] is None  # no pass has run
        assert stats["pairs"] == len(session.kb)
        assert stats["drift_history"] == [
            r.drift.fraction for r in reports
        ]


class TestCleaningTriggers:
    def test_staleness_trigger_fires_and_resets(self, service_corpus):
        pipeline = make_pipeline()
        session = pipeline.session(
            policy=IngestPolicy(staleness_threshold=700,
                                drift_threshold=None)
        )
        reports = [session.ingest(b) for b in service_corpus.batches(400)]
        reasons = [r.cleaning.reason for r in reports if r.cleaning]
        assert "staleness" in reasons
        # The counter resets after each pass, so no two consecutive
        # batches can both fire on staleness with a 700 threshold.
        fired = [r.cleaning is not None for r in reports]
        assert not any(a and b for a, b in zip(fired, fired[1:]))
        assert session.cleanings == len(reasons)
        assert len(session.kb.removed_pairs()) > 0

    def test_drift_trigger_fires(self, service_corpus):
        pipeline = make_pipeline()
        session = pipeline.session(
            policy=IngestPolicy(staleness_threshold=None,
                                drift_threshold=0.05, min_new_pairs=10)
        )
        report = session.ingest(next(service_corpus.batches(600)))
        assert report.cleaning is not None
        assert report.cleaning.reason == "drift"
        assert report.cleaning.removed_pairs > 0
        assert report.cleaning.rounds >= 1
        assert len(report.cleaning.round_stats) == report.cleaning.rounds

    def test_forced_clean(self, service_corpus):
        pipeline = make_pipeline()
        session = pipeline.session(policy=IngestPolicy.never())
        report = session.ingest(
            next(service_corpus.batches(600)), force_clean=True
        )
        assert report.cleaning is not None
        assert report.cleaning.reason == "forced"
        assert session.staleness == 0

    def test_sessions_on_one_pipeline_keep_separate_triggers(
        self, service_corpus
    ):
        pipeline = make_pipeline()
        quiet = pipeline.session(policy=IngestPolicy.never())
        stale = pipeline.session(
            policy=IngestPolicy(staleness_threshold=400,
                                drift_threshold=None)
        )
        first, second, third = list(service_corpus.batches(500))[:3]
        quiet.ingest(first)
        quiet.ingest(second, force_clean=True)
        quiet.ingest(third)
        assert quiet.cleanings == 1
        # The other session saw none of that: it ingested nothing.
        assert stale.batches_ingested == 0
        assert stale.staleness == 0
        assert stale.cleanings == 0
        assert drift_totals(stale) == {}
        report = stale.ingest(service_corpus.sentences[:10])
        assert report.cleaning is None
        assert stale.staleness == report.sentences_new == 10


class TestRoundBudget:
    """A drift pass runs one round; staleness and forced passes converge.

    The end of a stream is not cleaned implicitly: ``stats()["converged"]``
    says whether the last pass reached its fixed point, and an empty
    forced batch converges on demand.
    """

    DRIFT = IngestPolicy(
        staleness_threshold=None, drift_threshold=0.05, min_new_pairs=10
    )

    @pytest.fixture(scope="class")
    def drift_then_forced(self, service_corpus):
        session = make_pipeline().session(policy=self.DRIFT)
        drift = session.ingest(next(service_corpus.batches(600)))
        after_drift = session.stats()
        forced = session.ingest([], force_clean=True)
        return session, drift, after_drift, forced

    def test_drift_pass_runs_one_round(self, drift_then_forced):
        _, drift, after_drift, _ = drift_then_forced
        assert drift.cleaning.reason == "drift"
        assert drift.cleaning.rounds == 1
        assert len(drift.cleaning.round_stats) == 1
        assert drift.cleaning.removed_pairs > 0
        # Its one round still removed pairs: the fixed point is deferred.
        assert after_drift["converged"] is False

    def test_forced_empty_batch_converges_the_stream(self, drift_then_forced):
        session, _, _, forced = drift_then_forced
        assert forced.cleaning.reason == "forced"
        assert forced.sentences_new == 0
        final = forced.cleaning.round_stats[-1]
        assert final["records_rolled_back"] == final["pairs_removed"] == 0
        assert session.stats()["converged"] is True

    def test_staleness_pass_converges_from_the_same_first_round(
        self, drift_then_forced, service_corpus
    ):
        _, drift, _, _ = drift_then_forced
        session = make_pipeline().session(policy=EVERY_BATCH)
        stale = session.ingest(next(service_corpus.batches(600)))
        assert stale.cleaning.reason == "staleness"
        assert stale.cleaning.rounds > 1
        final = stale.cleaning.round_stats[-1]
        assert final["records_rolled_back"] == final["pairs_removed"] == 0
        assert session.stats()["converged"] is True
        # The budget only truncates: round 1 is the drift pass's round.
        assert stale.cleaning.round_stats[0] == drift.cleaning.round_stats[0]


class TestDurabilityGuards:
    def test_resume_requires_checkpoint_dir(self):
        pipeline = make_pipeline()
        with pytest.raises(ServiceError):
            pipeline.session(resume=True)

    def test_negative_checkpoint_every_rejected(self, tmp_path):
        pipeline = make_pipeline()
        with pytest.raises(ServiceError, match="checkpoint_every"):
            pipeline.session(
                checkpoint_dir=tmp_path / "ckpt", checkpoint_every=-3
            )
        assert not (tmp_path / "ckpt").exists()

    def test_checkpoint_requires_store(self):
        pipeline = make_pipeline()
        session = pipeline.session()
        with pytest.raises(ServiceError):
            session.checkpoint()

    def test_resume_from_empty_dir_starts_fresh(self, tmp_path):
        pipeline = make_pipeline()
        session = pipeline.session(
            checkpoint_dir=tmp_path / "ckpt", resume=True
        )
        assert session.batches_ingested == 0

    def test_replay_divergence_detected(self, tmp_path, service_corpus):
        ckpt = tmp_path / "ckpt"
        pipeline = make_pipeline()
        session = pipeline.session(
            policy=IngestPolicy.never(), checkpoint_dir=ckpt
        )
        session.ingest(next(service_corpus.batches(300)))
        # Tamper with the journaled outcome: replay must notice the
        # extraction no longer reproduces it.
        import json

        path = ckpt / "journal.jsonl"
        entry = json.loads(path.read_text().splitlines()[0])
        entry["report"]["total_pairs"] += 1
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ServiceError, match="diverged"):
            make_pipeline().session(checkpoint_dir=ckpt, resume=True)

    def test_undecodable_journal_report_names_file_and_seq(
        self, tmp_path, service_corpus
    ):
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=IngestPolicy.never(), checkpoint_dir=ckpt
        )
        session.ingest(next(service_corpus.batches(300)))
        path = ckpt / "journal.jsonl"
        entry = json.loads(path.read_text().splitlines()[0])
        del entry["report"]["drift"]
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ServiceError, match="seq 1") as info:
            make_pipeline().session(checkpoint_dir=ckpt, resume=True)
        assert str(path) in str(info.value)

    def test_undecodable_snapshot_report_names_file_and_seq(
        self, tmp_path, service_corpus
    ):
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=IngestPolicy.never(), checkpoint_dir=ckpt,
            checkpoint_every=1,
        )
        session.ingest(next(service_corpus.batches(300)))
        meta_path = ckpt / "snapshot-1" / "META.json"
        meta = json.loads(meta_path.read_text())
        meta["reports"][0]["drift"]["surplus"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ServiceError, match="seq 1") as info:
            make_pipeline().session(checkpoint_dir=ckpt, resume=True)
        assert str(meta_path) in str(info.value)
