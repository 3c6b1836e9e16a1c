"""Tests for the cleaning-trigger policy."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cleaning import CleaningResult
from repro.service import DriftStats, IngestPolicy, IngestSession

from .conftest import EVERY_BATCH, drift_totals, make_pipeline


class TestValidation:
    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            IngestPolicy(staleness_threshold=-1)

    def test_drift_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IngestPolicy(drift_threshold=1.5)
        with pytest.raises(ValueError):
            IngestPolicy(drift_threshold=-0.1)

    def test_negative_min_new_pairs_rejected(self):
        with pytest.raises(ValueError):
            IngestPolicy(min_new_pairs=-1)

    def test_none_disables_either_trigger(self):
        IngestPolicy(staleness_threshold=None)
        IngestPolicy(drift_threshold=None)


class TestDecide:
    def test_below_both_thresholds(self):
        policy = IngestPolicy(staleness_threshold=100, drift_threshold=0.5)
        assert policy.decide(staleness=50, drift=0.1, new_pairs=100) is None

    def test_staleness_fires(self):
        policy = IngestPolicy(staleness_threshold=100, drift_threshold=0.5)
        reason = policy.decide(staleness=100, drift=0.0, new_pairs=0)
        assert reason == "staleness"

    def test_drift_fires(self):
        policy = IngestPolicy(staleness_threshold=1000, drift_threshold=0.2)
        reason = policy.decide(staleness=10, drift=0.3, new_pairs=50)
        assert reason == "drift"

    def test_staleness_wins_when_both_fire(self):
        policy = IngestPolicy(staleness_threshold=10, drift_threshold=0.1)
        reason = policy.decide(staleness=10, drift=0.9, new_pairs=100)
        assert reason == "staleness"

    def test_forced_wins_over_everything(self):
        policy = IngestPolicy(staleness_threshold=0)
        reason = policy.decide(
            staleness=999, drift=0.9, new_pairs=100, forced=True
        )
        assert reason == "forced"

    def test_drift_suppressed_on_tiny_batches(self):
        policy = IngestPolicy(
            staleness_threshold=None, drift_threshold=0.1, min_new_pairs=20
        )
        assert policy.decide(staleness=0, drift=0.9, new_pairs=19) is None
        loud = policy.decide(staleness=0, drift=0.9, new_pairs=20)
        assert loud == "drift"

    def test_disabled_triggers_never_fire(self):
        policy = IngestPolicy.never()
        reason = policy.decide(staleness=10**9, drift=1.0, new_pairs=10**6)
        assert reason is None

    def test_every_batch_policy(self):
        reason = EVERY_BATCH.decide(staleness=0, drift=0.0, new_pairs=0)
        assert reason == "staleness"


class _NoCleaning:
    """A cleaner that removes nothing (the triggers are under test)."""

    def clean(self, kb, corpus, max_rounds=None):
        return CleaningResult(method="dp_cleaning", rounds=0)


def _session(policy):
    """A session whose passes run :class:`_NoCleaning`."""
    return IngestSession(
        config=make_pipeline().config,
        cleaner_factory=lambda refit_cache: _NoCleaning(),
        policy=policy,
    )


class TestPolicyMonitor:
    """The session monitors the policy's inputs itself.

    They are its staleness counter and the drift of the batch it just
    ingested; cumulative drift is a fold over its reports.
    """

    def test_staleness_accumulates_from_batches(self, service_corpus):
        session = _session(IngestPolicy.never())
        first = session.ingest(service_corpus.sentences[:60])
        second = session.ingest(service_corpus.sentences[60:100])
        assert session.staleness == first.sentences_new + second.sentences_new
        assert first.sentences_new > 0 and second.sentences_new > 0

    def test_cleaning_completed_resets_staleness(self, service_corpus):
        session = _session(IngestPolicy.never())
        session.ingest(service_corpus.sentences[:500])
        report = session.ingest([], force_clean=True)
        assert report.cleaning.reason == "forced"
        assert session.staleness == 0
        assert session.cleanings == 1

    def test_drift_events_fold_totals_and_track_last(self):
        reports = [
            SimpleNamespace(drift=DriftStats(
                30, 3, 0.1, {"food": [10, 1], "animal": [20, 2]}
            )),
            SimpleNamespace(drift=DriftStats(50, 10, 0.2, {"animal": [50, 10]})),
        ]
        totals = drift_totals(SimpleNamespace(reports=reports))
        assert totals == {"animal": [70, 12], "food": [10, 1]}
        # Folded in sorted concept order, whatever order the batch had.
        assert list(totals) == ["animal", "food"]

    def test_decide_reads_the_accumulated_state(self, service_corpus):
        session = _session(IngestPolicy(
            staleness_threshold=None, drift_threshold=0.0, min_new_pairs=20
        ))
        report = session.ingest(service_corpus.sentences[:500])
        assert report.new_pairs >= 20
        assert report.cleaning.reason == "drift"
        assert session.staleness == 0

    def test_session_monitor_matches_reports(self, service_corpus):
        """The live session's monitor agrees with its committed reports."""
        pipeline = make_pipeline()
        session = pipeline.session(policy=IngestPolicy.never())
        for batch in service_corpus.batches(500):
            session.ingest(batch)
        expected = sum(r.sentences_new for r in session.reports)
        assert session.staleness == expected
        assert session.cleanings == 0
