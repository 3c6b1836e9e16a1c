"""Fault injection at the checkpoint's file layer.

A snapshot is written through ``os`` calls in :mod:`repro.service.checkpoint`
(and the journal reset in :mod:`repro.service.journal`).  Each case here
swaps that module's ``os`` for a stand-in whose k-th write, fsync, link,
rename or replace fails with ``EIO`` or ``ENOSPC``.  The error must reach
the caller, and the directory must still resume — previously published
snapshot plus journal — to a knowledge base whose ``save_kb`` bytes equal
the live session's.  A batch whose journal append fails must leave the
journal as it was and the session refusing further work.  Damage to a
published snapshot instead must fail the resume with a
:class:`~repro.errors.ServiceError` naming the file.
"""

from __future__ import annotations

import errno
import json
import os
import shutil

import numpy as np
import pytest

import repro.service.checkpoint as checkpoint
import repro.service.journal as journal
from repro.errors import ServiceError
from repro.kb.serialize import save_kb
from repro.service import CheckpointStore, IngestPolicy, IngestSession

from .conftest import make_pipeline

POLICY = IngestPolicy(
    staleness_threshold=600, drift_threshold=0.08, min_new_pairs=10
)
BATCH_SIZE = 300

#: The calls one chained snapshot makes: five files written (two new
#: segments, state.json, META.json, CURRENT.tmp), nine fsyncs (those five,
#: the snapshot directory, the parent after the rename and after the
#: swap, the journal reset), three files linked (two segments and the
#: detector basis), one rename, one swap.
FAULTS = (
    [("write", k) for k in range(1, 6)]
    + [("fsync", k) for k in range(1, 10)]
    + [("link", 1), ("link", 2), ("link", 3), ("rename", 1),
       ("replace", 1)]
)


class FaultyOS:
    """Stands in for ``os``: the k-th call of one operation fails."""

    def __init__(self, op: str, k: int, code: int) -> None:
        self.fired = False
        real = getattr(os, op)
        calls = 0

        def failing(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == k:
                self.fired = True
                raise OSError(code, os.strerror(code))
            return real(*args, **kwargs)

        setattr(self, op, failing)

    def __getattr__(self, name):
        return getattr(os, name)


def _kb_bytes(kb, path) -> bytes:
    save_kb(kb, path)
    return path.read_bytes()


def _no_cleaner(refit_cache):
    raise AssertionError("resume must not run a cleaner")


def _resume(pipeline, ckpt) -> IngestSession:
    """A cold resume with a private run context."""
    return IngestSession(
        config=pipeline.config,
        cleaner_factory=_no_cleaner,
        policy=POLICY,
        checkpoint_dir=ckpt,
        resume=True,
    )


@pytest.fixture(scope="module")
def prepared(service_corpus, tmp_path_factory):
    """snapshot-2 published, batches 3–4 only in the journal, live bytes."""
    tmp = tmp_path_factory.mktemp("faults")
    pipeline = make_pipeline()
    session = pipeline.session(policy=POLICY, checkpoint_dir=tmp / "ckpt")
    batches = list(service_corpus.batches(BATCH_SIZE))
    for batch in batches[:2]:
        session.ingest(batch)
    session.checkpoint()
    for batch in batches[2:4]:
        session.ingest(batch)
    assert session.cleanings > 0
    return pipeline, tmp / "ckpt", _kb_bytes(session.kb, tmp / "live.jsonl")


@pytest.fixture
def resumed(prepared, tmp_path):
    """A live session resumed from a copy of the prepared directory."""
    pipeline, template, live = prepared
    ckpt = tmp_path / "ckpt"
    shutil.copytree(template, ckpt)
    session = _resume(pipeline, ckpt)
    assert _kb_bytes(session.kb, tmp_path / "resumed.jsonl") == live
    return session, ckpt


def _assert_resumes_identically(prepared, ckpt, tmp_path):
    pipeline, _, live = prepared
    session = _resume(pipeline, ckpt)
    assert _kb_bytes(session.kb, tmp_path / "after.jsonl") == live
    return session


@pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC],
                         ids=["EIO", "ENOSPC"])
@pytest.mark.parametrize("op,k", FAULTS, ids=[f"{o}{k}" for o, k in FAULTS])
def test_io_fault_mid_snapshot(prepared, resumed, tmp_path, monkeypatch,
                               op, k, code):
    session, ckpt = resumed
    faulty = FaultyOS(op, k, code)
    monkeypatch.setattr(checkpoint, "os", faulty)
    monkeypatch.setattr(journal, "os", faulty)
    with pytest.raises(OSError) as info:
        session.checkpoint()
    assert faulty.fired
    assert info.value.errno == code
    monkeypatch.undo()
    _assert_resumes_identically(prepared, ckpt, tmp_path)
    # The failed attempt leaves nothing the next snapshot trips over.
    session.checkpoint()
    _assert_resumes_identically(prepared, ckpt, tmp_path)


#: The journal append's one write and one fsync.
APPEND_FAULTS = [("write", 1), ("fsync", 1)]


def _held_basis(prepared, ckpt, tmp_path) -> str:
    """Resume ``ckpt`` as it would have been live, snapshot it, and return
    the basis file its ``META.json`` names."""
    session = _assert_resumes_identically(prepared, ckpt, tmp_path)
    session.checkpoint()
    meta = json.loads((ckpt / "snapshot-4" / "META.json").read_text())
    return meta["embedding"]


@pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC],
                         ids=["EIO", "ENOSPC"])
@pytest.mark.parametrize("op,k", APPEND_FAULTS,
                         ids=[f"{o}{k}" for o, k in APPEND_FAULTS])
def test_io_fault_mid_journal_append(prepared, service_corpus, tmp_path,
                                     monkeypatch, op, k, code):
    pipeline, template, _ = prepared
    ckpt = tmp_path / "ckpt"
    shutil.copytree(template, ckpt)
    as_was = shutil.copytree(template, tmp_path / "as-was")
    held = _held_basis(prepared, as_was, tmp_path)
    session = pipeline.session(policy=POLICY, checkpoint_dir=ckpt,
                               resume=True)
    journal_path = ckpt / "journal.jsonl"
    committed = journal_path.read_bytes()
    batch = list(service_corpus.batches(BATCH_SIZE))[4]
    faulty = FaultyOS(op, k, code)
    monkeypatch.setattr(journal, "os", faulty)
    with pytest.raises(OSError) as info:
        # A forced pass refits: its basis file lands before the append.
        session.ingest(batch, force_clean=True)
    assert faulty.fired
    assert info.value.errno == code
    monkeypatch.undo()
    assert journal_path.read_bytes() == committed
    orphan = ckpt / "embedding-5.npz"
    assert orphan.exists()
    for retry in (lambda: session.ingest(batch), session.checkpoint):
        with pytest.raises(ServiceError, match="resume") as refused:
            retry()
        assert str(journal_path) in str(refused.value)
    # A fresh resume holds the batch-4 state and the basis it held then.
    assert _held_basis(prepared, ckpt, tmp_path) == held != orphan.name


def test_crash_between_rename_and_current_swap(prepared, resumed, tmp_path,
                                               monkeypatch):
    session, ckpt = resumed
    monkeypatch.setattr(checkpoint, "os", FaultyOS("replace", 1, errno.EIO))
    with pytest.raises(OSError):
        session.checkpoint()
    monkeypatch.undo()
    # The new directory landed but was never published.
    assert (ckpt / "snapshot-4").is_dir()
    assert (ckpt / "CURRENT").read_text().strip() == "snapshot-2"
    resumed_again = _assert_resumes_identically(prepared, ckpt, tmp_path)
    resumed_again.checkpoint()
    assert sorted(p.name for p in ckpt.glob("snapshot-*")) == ["snapshot-4"]
    _assert_resumes_identically(prepared, ckpt, tmp_path)


def test_same_seq_resnapshot_keeps_current(prepared, resumed, tmp_path,
                                           monkeypatch):
    # The CLI snapshots once more after its last batch, at the seq the
    # per-batch snapshot already published.  That call must not touch the
    # published directory: a crash between deleting it and renaming its
    # replacement in would leave CURRENT naming a missing directory.
    session, ckpt = resumed
    session.checkpoint()
    faulty = FaultyOS("rename", 1, errno.EIO)
    monkeypatch.setattr(checkpoint, "os", faulty)
    monkeypatch.setattr(journal, "os", faulty)
    session.checkpoint()
    monkeypatch.undo()
    assert not faulty.fired
    assert (ckpt / "CURRENT").read_text().strip() == "snapshot-4"
    _assert_resumes_identically(prepared, ckpt, tmp_path)


def _resume_fails_naming(prepared, ckpt, path):
    pipeline = prepared[0]
    with pytest.raises(ServiceError) as info:
        _resume(pipeline, ckpt)
    assert str(path) in str(info.value)


@pytest.fixture
def published(prepared, tmp_path):
    """A copy of the prepared directory whose snapshot is chained."""
    _, template, _ = prepared
    ckpt = tmp_path / "ckpt"
    shutil.copytree(template, ckpt)
    return ckpt, ckpt / "snapshot-2"


class TestDamagedSnapshot:
    def test_corrupt_current(self, prepared, published):
        ckpt, _ = published
        (ckpt / "CURRENT").write_bytes(b"\x00\x9f\x92\x96")
        _resume_fails_naming(prepared, ckpt, ckpt / "CURRENT")

    def test_dangling_current(self, prepared, published):
        ckpt, _ = published
        (ckpt / "CURRENT").write_text("snapshot-7\n")
        _resume_fails_naming(prepared, ckpt, ckpt / "snapshot-7")

    def test_truncated_segment(self, prepared, published):
        ckpt, snapshot = published
        segment = snapshot / "kb-0.jsonl"
        segment.write_bytes(segment.read_bytes()[:-1])
        _resume_fails_naming(prepared, ckpt, segment)

    def test_padded_segment(self, prepared, published):
        ckpt, snapshot = published
        segment = snapshot / "corpus-0.jsonl"
        segment.write_bytes(segment.read_bytes() + b"\n")
        _resume_fails_naming(prepared, ckpt, segment)

    def test_missing_segment(self, prepared, published):
        ckpt, snapshot = published
        (snapshot / "corpus-0.jsonl").unlink()
        _resume_fails_naming(prepared, ckpt, snapshot / "corpus-0.jsonl")

    def test_format_3_directory_is_rejected(self, prepared, published):
        # Format 3 had no detector basis; its sessions cannot resume one.
        ckpt, snapshot = published
        meta_path = snapshot / "META.json"
        meta = json.loads(meta_path.read_text())
        del meta["embedding"]
        meta["checkpoint_version"] = 3
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ServiceError, match="checkpoint format 3") as info:
            _resume(prepared[0], ckpt)
        assert str(meta_path) in str(info.value)

    def test_wrong_checkpoint_version(self, prepared, published):
        ckpt, snapshot = published
        meta_path = snapshot / "META.json"
        meta = json.loads(meta_path.read_text())
        meta["checkpoint_version"] = 1
        meta_path.write_text(json.dumps(meta))
        _resume_fails_naming(prepared, ckpt, meta_path)

    def test_cleanings_disagree_with_reports(self, prepared, published):
        ckpt, snapshot = published
        meta_path = snapshot / "META.json"
        meta = json.loads(meta_path.read_text())
        assert meta["cleanings"] == sum(
            report["cleaning"] is not None for report in meta["reports"]
        )
        meta["cleanings"] += 1
        meta_path.write_text(json.dumps(meta))
        _resume_fails_naming(prepared, ckpt, meta_path)


def _rewrite_basis(path, change):
    """Store the basis at ``path`` again with ``change`` applied."""
    with np.load(path) as stored:
        arrays = {key: stored[key] for key in stored.files}
    change(arrays)
    path.unlink()  # a snapshot's basis is a hard link: do not write through
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _truncate(path):
    data = path.read_bytes()
    path.unlink()
    path.write_bytes(data[: len(data) // 2])


def _misshape(arrays):
    arrays["alphas"] = arrays["alphas"][:-1]


def _mistype(arrays):
    arrays["alphas"] = arrays["alphas"].astype(np.float32)


def _pickled(arrays):
    arrays["alphas"] = np.array([arrays["alphas"]] * 2, dtype=object)


BASIS_DAMAGE = {
    "missing": lambda path: path.unlink(),
    "truncated": _truncate,
    "misshaped": lambda path: _rewrite_basis(path, _misshape),
    "mistyped": lambda path: _rewrite_basis(path, _mistype),
    "pickled": lambda path: _rewrite_basis(path, _pickled),
}


@pytest.fixture(scope="module")
def journaled_basis(service_corpus, tmp_path_factory):
    """A directory whose only basis is named by a journal entry."""
    ckpt = tmp_path_factory.mktemp("journaled") / "ckpt"
    session = make_pipeline().session(policy=POLICY, checkpoint_dir=ckpt)
    for batch in list(service_corpus.batches(BATCH_SIZE))[:2]:
        session.ingest(batch)
    entries = list(CheckpointStore(ckpt).journal.entries())
    assert entries[-1]["embedding"] == "embedding-2.npz"
    return ckpt


class TestDamagedBasis:
    @pytest.mark.parametrize("damage", BASIS_DAMAGE)
    def test_snapshot_basis(self, prepared, published, damage):
        ckpt, snapshot = published
        meta = json.loads((snapshot / "META.json").read_text())
        assert meta["embedding"] == "embedding-2.npz"
        path = snapshot / meta["embedding"]
        BASIS_DAMAGE[damage](path)
        _resume_fails_naming(prepared, ckpt, path)

    @pytest.mark.parametrize("damage", BASIS_DAMAGE)
    def test_journaled_basis(self, prepared, journaled_basis, tmp_path,
                             damage):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(journaled_basis, ckpt)
        path = ckpt / "embedding-2.npz"
        BASIS_DAMAGE[damage](path)
        _resume_fails_naming(prepared, ckpt, path)

    def test_basis_name_outside_the_directory(self, prepared, published):
        ckpt, snapshot = published
        meta_path = snapshot / "META.json"
        meta = json.loads(meta_path.read_text())
        meta["embedding"] = "../embedding-2.npz"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ServiceError, match="not a basis file") as info:
            _resume(prepared[0], ckpt)
        assert str(meta_path) in str(info.value)
