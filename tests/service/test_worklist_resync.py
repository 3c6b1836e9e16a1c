"""Crash drill for the worklist under drift-triggered cleaning rollbacks.

The tentpole hazard: the candidate index caches which ``(concept,
instance)`` pairs each pending sentence waits on, so a cleaning pass that
rolls knowledge back underneath the extractor must shrink the tracked
snapshot — otherwise resolution keeps triggering off removed pairs, and
a pair re-extracted after rollback would be silently treated as
already-known (a missed wake).  These drills pin both directions, then
repeat the crash-resume invariant on a drift-heavy schedule where
cleanings interleave with the worklist's index state.
"""

from __future__ import annotations

import pytest

from repro.config import ExtractionConfig
from repro.corpus.sentence import Sentence
from repro.extraction import IncrementalExtractor
from repro.kb import IsAPair
from repro.kb.serialize import save_kb
from repro.service import IngestPolicy

from .conftest import make_pipeline

# Drift-only triggers: every cleaning in these drills is caused by the
# measured f2 conflict signal, never by the staleness schedule.
POLICY = IngestPolicy(
    staleness_threshold=None, drift_threshold=0.05, min_new_pairs=10
)
BATCH_SIZE = 300


def _sentence(sid, concepts, instances):
    return Sentence(sid=sid, surface=f"s{sid}", concepts=concepts,
                    instances=instances)


def _kb_bytes(kb, tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    save_kb(kb, path)
    return path.read_bytes()


class TestResyncInvalidation:
    """Rollback semantics at the extractor level."""

    def test_no_resolution_off_rolled_back_pairs(self):
        extractor = IncrementalExtractor(ExtractionConfig())
        # Batch 1: "pork isA animal" becomes visible; sentence 1 stays
        # pending (its only candidate evidence is ham/pork under food).
        extractor.ingest([
            _sentence(0, ("animal",), ("dog", "pork")),
            _sentence(1, ("food", "plant"), ("pork", "ham")),
        ])
        assert extractor.unresolved_sids() == (1,)

        # Rollback removes animal/pork out-of-band (what a cleaning pass
        # does), and the session resyncs the dirty concepts.
        version_before = extractor.kb.version
        extractor.kb.remove_pair(IsAPair("animal", "pork"))
        extractor.resync_visible(
            extractor.kb.dirty_concepts_since(version_before)
        )
        assert "pork" not in extractor.worklist.visible.get(
            "animal", frozenset()
        )

        # Batch 2 makes "pork isA food" visible: sentence 1 must now
        # resolve to food — and only via the fresh pair, not the removed
        # one (which would have required no new evidence at all).
        extractor.ingest([_sentence(2, ("food",), ("bread", "pork"))])
        assert extractor.unresolved_sids() == ()
        assert extractor.kb.has_instance("food", "ham")
        assert not extractor.kb.has_instance("animal", "ham")

    def test_rollback_then_reextraction_wakes_waiters(self):
        extractor = IncrementalExtractor(ExtractionConfig())
        extractor.ingest([
            _sentence(0, ("animal",), ("dog", "pork")),
            _sentence(1, ("animal", "food"), ("pork", "ham")),
        ])
        # Sentence 1 resolved off animal/pork; roll the whole cascade back.
        version_before = extractor.kb.version
        for pair in (IsAPair("animal", "pork"), IsAPair("animal", "ham")):
            if pair in extractor.kb:
                extractor.kb.remove_pair(pair)
        extractor.resync_visible(
            extractor.kb.dirty_concepts_since(version_before)
        )

        # Re-extraction of animal/pork is a *fresh* visibility transition:
        # the still-pending pool must be woken by it, not starved by a
        # stale "already visible" snapshot.
        extractor.ingest([_sentence(2, ("food", "plant"), ("pork", "ham"))])
        assert 2 in extractor.unresolved_sids()
        extractor.ingest([_sentence(3, ("food",), ("cheese", "pork"))])
        assert extractor.unresolved_sids() == ()
        assert extractor.kb.has_instance("food", "ham")


@pytest.fixture(scope="module")
def batches(service_corpus):
    return list(service_corpus.batches(BATCH_SIZE))


@pytest.fixture(scope="module")
def uninterrupted(batches, tmp_path_factory):
    """The reference: drift-cleaned stream, never killed."""
    session = make_pipeline().session(policy=POLICY)
    for batch in batches:
        session.ingest(batch)
    tmp = tmp_path_factory.mktemp("worklist-ref")
    return {
        "kb_bytes": _kb_bytes(session.kb, tmp, "ref"),
        "reports": [r.to_dict() for r in session.reports],
        "stats": session.stats(),
        "cleanings": session.cleanings,
    }


class TestDriftCleaningCrashDrill:
    def test_reference_run_actually_cleans_on_drift(self, uninterrupted):
        assert uninterrupted["cleanings"] > 0
        reasons = [
            r["cleaning"]["reason"]
            for r in uninterrupted["reports"]
            if r["cleaning"]
        ]
        assert reasons and all(reason == "drift" for reason in reasons)

    def test_resume_after_drift_clean_matches_bit_for_bit(
        self, batches, tmp_path, uninterrupted
    ):
        """Kill right after the first drift-triggered clean, then resume.

        The resumed session rebuilds the worklist with a conservatively
        woken pool (attempt history is not checkpointed) and must still
        converge byte-identically — spurious wakes are sound, missed
        wakes would diverge here.
        """
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=1
        )
        cleaned_at = None
        for index, batch in enumerate(batches):
            report = session.ingest(batch)
            if report.cleaning is not None:
                cleaned_at = index
                break
        assert cleaned_at is not None, "drill needs a drift-triggered clean"
        assert cleaned_at < len(batches) - 1, "need batches after the clean"
        del session  # crash

        resumed = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, resume=True
        )
        for batch in batches[resumed.batches_ingested:]:
            resumed.ingest(batch)
        assert _kb_bytes(resumed.kb, tmp_path, "resumed") == (
            uninterrupted["kb_bytes"]
        )
        assert [r.to_dict() for r in resumed.reports] == (
            uninterrupted["reports"]
        )
        assert resumed.stats() == uninterrupted["stats"]

    def test_journal_replay_through_clean_matches(
        self, batches, tmp_path, uninterrupted
    ):
        """No snapshot at all: replaying journaled rollback ops must leave
        the worklist's snapshot consistent for the live batches after."""
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=0
        )
        ingested = 0
        for batch in batches:
            report = session.ingest(batch)
            ingested += 1
            if report.cleaning is not None:
                break
        del session  # crash with only the journal on disk

        resumed = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, resume=True
        )
        assert resumed.batches_ingested == ingested
        assert resumed.cleanings > 0
        for batch in batches[ingested:]:
            resumed.ingest(batch)
        assert _kb_bytes(resumed.kb, tmp_path, "replayed") == (
            uninterrupted["kb_bytes"]
        )
        assert resumed.stats() == uninterrupted["stats"]
