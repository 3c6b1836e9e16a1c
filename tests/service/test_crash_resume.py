"""Crash-resume drills: killed sessions must resume bit-identically.

The durability invariant: whatever instant the process dies at —
mid-journal-append (torn record), between batches, right after a snapshot
— resuming from ``checkpoint + journal replay`` and ingesting the
remaining batches produces a byte-identical serialized KB and identical
per-batch reports versus a session that was never interrupted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kb.serialize import save_kb
from repro.service import CheckpointStore, IngestPolicy
from repro.service.journal import Journal

from .conftest import make_pipeline, truncate_last_entry


POLICY = IngestPolicy(
    staleness_threshold=600, drift_threshold=0.08, min_new_pairs=10
)
BATCH_SIZE = 400


def _kb_bytes(kb, tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    save_kb(kb, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def batches(service_corpus):
    return list(service_corpus.batches(BATCH_SIZE))


@pytest.fixture(scope="module")
def uninterrupted(batches, tmp_path_factory):
    """The reference: one session, never killed."""
    session = make_pipeline().session(policy=POLICY)
    for batch in batches:
        session.ingest(batch)
    tmp = tmp_path_factory.mktemp("uninterrupted")
    return {
        "kb_bytes": _kb_bytes(session.kb, tmp, "ref"),
        "reports": [r.to_dict() for r in session.reports],
        "stats": session.stats(),
    }


def _resume_and_finish(ckpt, batches, tmp_path, uninterrupted):
    session = make_pipeline().session(
        policy=POLICY, checkpoint_dir=ckpt, resume=True
    )
    for batch in batches[session.batches_ingested:]:
        session.ingest(batch)
    assert _kb_bytes(session.kb, tmp_path, "resumed") == (
        uninterrupted["kb_bytes"]
    )
    assert [r.to_dict() for r in session.reports] == (
        uninterrupted["reports"]
    )
    assert session.stats() == uninterrupted["stats"]
    return session


class TestCrashResume:
    def test_killed_mid_journal_append(self, batches, tmp_path,
                                       uninterrupted):
        """Die while appending batch 4's journal record (torn tail)."""
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=2
        )
        for batch in batches[:3]:
            session.ingest(batch)
        del session  # the process is gone; only the directory survives
        with open(CheckpointStore(ckpt).journal.path, "a",
                  encoding="utf-8") as handle:
            handle.write('{"seq": 4, "type": "batch", "sent')
        _resume_and_finish(ckpt, batches, tmp_path, uninterrupted)

    def test_killed_after_committed_batch(self, batches, tmp_path,
                                          uninterrupted):
        """Die cleanly between batches: journal tail fully committed."""
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=2
        )
        for batch in batches[:3]:
            session.ingest(batch)
        del session
        _resume_and_finish(ckpt, batches, tmp_path, uninterrupted)

    def test_killed_with_last_record_dropped(self, batches, tmp_path,
                                             uninterrupted):
        """The final journal record never hit the disk at all.

        The batch was applied in memory but its commit record is absent,
        so on resume the session re-ingests that batch from the caller —
        exactly the at-least-once contract — and still converges.
        """
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=2
        )
        for batch in batches[:3]:
            session.ingest(batch)
        del session
        store = CheckpointStore(ckpt)
        assert truncate_last_entry(store.journal.path)
        resumed = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, resume=True
        )
        # Batch 3's commit record is gone: only two batches survive.
        assert resumed.batches_ingested == 2
        for batch in batches[2:]:
            resumed.ingest(batch)
        assert _kb_bytes(resumed.kb, tmp_path, "resumed") == (
            uninterrupted["kb_bytes"]
        )
        assert [r.to_dict() for r in resumed.reports] == (
            uninterrupted["reports"]
        )

    def test_killed_right_after_snapshot(self, batches, tmp_path,
                                         uninterrupted):
        """Die immediately after a snapshot published (empty journal)."""
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt
        )
        for batch in batches[:2]:
            session.ingest(batch)
        session.checkpoint()
        del session
        _resume_and_finish(ckpt, batches, tmp_path, uninterrupted)

    def test_journal_only_resume(self, batches, tmp_path, uninterrupted):
        """No snapshot ever taken: the journal alone rebuilds everything."""
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=0
        )
        for batch in batches[:3]:
            session.ingest(batch)
        del session
        _resume_and_finish(ckpt, batches, tmp_path, uninterrupted)

    def test_double_crash(self, batches, tmp_path, uninterrupted):
        """Crash, resume, crash again mid-append, resume again."""
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=1
        )
        session.ingest(batches[0])
        del session
        second = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, resume=True
        )
        second.ingest(batches[1])
        second.ingest(batches[2])
        del second
        with open(CheckpointStore(ckpt).journal.path, "a",
                  encoding="utf-8") as handle:
            handle.write('{"torn')
        _resume_and_finish(ckpt, batches, tmp_path, uninterrupted)

    def test_killed_after_a_fitting_pass_before_the_next_snapshot(
        self, batches, tmp_path, uninterrupted
    ):
        """Die once the pass that fits the basis has committed.

        The basis lives only in the file its journal entry names; the
        resumed session adopts it, and its drift passes reuse it.
        """
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt
        )
        session.ingest(batches[0])
        session.checkpoint()
        report = session.ingest(batches[1])
        assert report.cleaning is not None
        assert [e.get("embedding") for e in
                CheckpointStore(ckpt).journal.entries()] == ["embedding-2.npz"]
        live = session._refit_cache.embedding
        del session
        resumed = _resume_and_finish(ckpt, batches, tmp_path, uninterrupted)
        assert [r.cleaning.reason for r in resumed.reports[2:]
                if r.cleaning] == ["drift", "drift"]
        rows = np.random.default_rng(1).uniform(0.0, 5.0, size=(50, 4))
        assert np.array_equal(
            resumed._refit_cache.embedding.transform(rows),
            live.transform(rows),
        )

    def test_killed_between_basis_write_and_journal_entry(
        self, batches, tmp_path, uninterrupted, monkeypatch
    ):
        """Die after the basis file is durable, before its entry commits.

        The orphan file is not adopted: the resumed session has no basis
        until it re-runs the batch, whose pass fits one again.
        """
        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, checkpoint_every=1
        )
        session.ingest(batches[0])
        append = Journal.append

        def dies_naming_a_basis(journal, entry):
            if "embedding" in entry:
                raise OSError("killed")
            return append(journal, entry)

        monkeypatch.setattr(Journal, "append", dies_naming_a_basis)
        with pytest.raises(OSError, match="killed"):
            session.ingest(batches[1])
        monkeypatch.undo()
        del session
        assert (ckpt / "embedding-2.npz").is_file()
        resumed = make_pipeline().session(
            policy=POLICY, checkpoint_dir=ckpt, resume=True
        )
        assert resumed.batches_ingested == 1
        assert resumed._refit_cache.embedding is None
        del resumed
        _resume_and_finish(ckpt, batches, tmp_path, uninterrupted)
