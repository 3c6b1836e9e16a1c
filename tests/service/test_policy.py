"""Tests for the cleaning-trigger policy."""

from __future__ import annotations

import pytest

from repro.service import IngestPolicy, PolicyMonitor

from .conftest import EVERY_BATCH


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
        decision = policy.decide(staleness=50, drift=0.1, new_pairs=100)
        assert not decision.clean
        assert decision.reason is None
        assert decision.staleness == 50
        assert decision.drift == 0.1

    def test_staleness_fires(self):
        policy = IngestPolicy(staleness_threshold=100, drift_threshold=0.5)
        decision = policy.decide(staleness=100, drift=0.0, new_pairs=0)
        assert decision.clean
        assert decision.reason == "staleness"

    def test_drift_fires(self):
        policy = IngestPolicy(staleness_threshold=1000, drift_threshold=0.2)
        decision = policy.decide(staleness=10, drift=0.3, new_pairs=50)
        assert decision.clean
        assert decision.reason == "drift"

    def test_staleness_wins_when_both_fire(self):
        policy = IngestPolicy(staleness_threshold=10, drift_threshold=0.1)
        decision = policy.decide(staleness=10, drift=0.9, new_pairs=100)
        assert decision.reason == "staleness"

    def test_forced_wins_over_everything(self):
        policy = IngestPolicy(staleness_threshold=0)
        decision = policy.decide(
            staleness=999, drift=0.9, new_pairs=100, forced=True
        )
        assert decision.reason == "forced"

    def test_drift_suppressed_on_tiny_batches(self):
        policy = IngestPolicy(
            staleness_threshold=None, drift_threshold=0.1, min_new_pairs=20
        )
        quiet = policy.decide(staleness=0, drift=0.9, new_pairs=19)
        assert not quiet.clean
        loud = policy.decide(staleness=0, drift=0.9, new_pairs=20)
        assert loud.clean

    def test_disabled_triggers_never_fire(self):
        policy = IngestPolicy.never()
        decision = policy.decide(staleness=10**9, drift=1.0, new_pairs=10**6)
        assert not decision.clean

    def test_every_batch_policy(self):
        assert EVERY_BATCH.decide(staleness=0, drift=0.0, new_pairs=0).clean


class TestPolicyMonitor:
    """The monitor accumulates the trigger inputs the session records."""

    def test_staleness_accumulates_from_batches(self):
        monitor = PolicyMonitor()
        monitor.batch(60, 10, 0.0, {})
        monitor.batch(40, 10, 0.0, {})
        assert monitor.staleness == 100

    def test_cleaning_completed_resets_staleness(self):
        monitor = PolicyMonitor()
        monitor.batch(500, 10, 0.0, {})
        monitor.cleaned()
        assert monitor.staleness == 0
        assert monitor.cleanings == 1

    def test_drift_events_fold_totals_and_track_last(self):
        monitor = PolicyMonitor()
        monitor.batch(100, 30, 0.1, {"food": [10, 1], "animal": [20, 2]})
        monitor.batch(100, 50, 0.2, {"animal": [50, 10]})
        assert monitor.last_drift == 0.2
        assert monitor.last_new_pairs == 50
        assert monitor.drift_totals == {
            "animal": [70, 12], "food": [10, 1],
        }
        # Folded in sorted concept order, whatever order the batch had.
        assert list(monitor.drift_totals) == ["animal", "food"]

    def test_decide_reads_the_accumulated_state(self):
        monitor = PolicyMonitor()
        policy = IngestPolicy(
            staleness_threshold=None, drift_threshold=0.1, min_new_pairs=20
        )
        monitor.batch(0, 25, 0.2, {})
        decision = monitor.decide(policy)
        assert decision.clean and decision.reason == "drift"

    def test_session_monitor_matches_reports(self, service_corpus):
        """The live session's monitor agrees with its committed reports."""
        from .conftest import make_pipeline

        pipeline = make_pipeline()
        session = pipeline.session(policy=IngestPolicy.never())
        for batch in service_corpus.batches(500):
            session.ingest(batch)
        expected = sum(r.sentences_new for r in session.reports)
        assert session.staleness == expected
        assert session.cleanings == 0
