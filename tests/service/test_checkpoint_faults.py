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
import io
import json
import os
import shutil
import zipfile

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

#: The calls one chained snapshot makes: five files written (the new
#: string table and record columns, state.json, META.json, CURRENT.tmp),
#: nine fsyncs (those five, the snapshot directory, the parent after the
#: rename and after the swap, the journal reset), seven files linked (the
#: previous snapshot's four segments, the two journaled batches'
#: sentences files and the detector basis), one rename, one swap.
FAULTS = (
    [("write", k) for k in range(1, 6)]
    + [("fsync", k) for k in range(1, 10)]
    + [("link", k) for k in range(1, 8)]
    + [("rename", 1), ("replace", 1)]
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
        segment = snapshot / "kb-0.zip"
        segment.write_bytes(segment.read_bytes()[:-1])
        _resume_fails_naming(prepared, ckpt, segment)

    def test_padded_segment(self, prepared, published):
        ckpt, snapshot = published
        segment = snapshot / "sentences-1.jsonl"
        segment.write_bytes(segment.read_bytes() + b"\n")
        _resume_fails_naming(prepared, ckpt, segment)

    def test_missing_segment(self, prepared, published):
        ckpt, snapshot = published
        (snapshot / "sentences-1.jsonl").unlink()
        _resume_fails_naming(prepared, ckpt, snapshot / "sentences-1.jsonl")

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


def _rewrite_segment(snapshot, name, data: bytes):
    """Replace segment ``name`` with ``data`` and make its ``META.json``
    entry promise that many bytes, so the codec's own checks are reached."""
    path = snapshot / name
    path.unlink()  # segments are hard links: do not write through
    path.write_bytes(data)
    meta_path = snapshot / "META.json"
    meta = json.loads(meta_path.read_text())
    (segment,) = [s for s in meta["segments"] if s["file"] == name]
    segment["bytes"] = len(data)
    meta_path.write_text(json.dumps(meta))
    return path


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array)
    return buffer.getvalue()


def _rewrite_columns(snapshot, change):
    """Rewrite ``kb-0.zip`` with ``change`` applied to its members, a dict
    of column name → ``.npy`` bytes."""
    with zipfile.ZipFile(snapshot / "kb-0.zip") as archive:
        members = {
            member.removesuffix(".npy"): archive.read(member)
            for member in archive.namelist()
        }
    change(members)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data in members.items():
            archive.writestr(f"{name}.npy", data)
    return _rewrite_segment(snapshot, "kb-0.zip", buffer.getvalue())


def _column(members, name):
    return np.lib.format.read_array(io.BytesIO(members[name]))


def _set_column(name, change):
    def apply(members):
        members[name] = _npy(change(_column(members, name)))
    return apply


def _swap_second_and_third(offsets):
    assert offsets[1] != offsets[2]
    offsets[[1, 2]] = offsets[[2, 1]]
    return offsets


def _bump_last(offsets):
    offsets[-1] += 1
    return offsets


def _set_first(value):
    def change(ids):
        ids[0] = value
        return ids
    return change


COLUMN_DAMAGE = {
    "truncated-member": lambda m: m.update(instances=m["instances"][:-8]),
    "padded-member": lambda m: m.update(instances=m["instances"] + bytes(8)),
    "int32": _set_column("sid", lambda a: a.astype(np.int32)),
    "float64": _set_column("iteration", lambda a: a.astype(np.float64)),
    "pickled": _set_column("sid", lambda a: a.astype(object)),
    "two-dimensional": _set_column("concept", lambda a: a.reshape(-1, 1)),
    "ragged": _set_column("concept", lambda a: a[:-1]),
    "missing-column": lambda m: m.pop("triggers"),
    "fewer-records-than-meta": lambda m: [
        _set_column(name, lambda a: a[:-1])(m)
        for name in ("sid", "concept", "iteration")
    ],
    "id-past-the-table": _set_column("instances", _set_first(10**6)),
    "negative-id": _set_column("concept", _set_first(-1)),
    "descending-offsets": _set_column(
        "instance_offsets", _swap_second_and_third
    ),
    "offsets-past-the-end": _set_column("trigger_offsets", _bump_last),
    "ids-past-the-offsets": _set_column(
        "instances", lambda a: np.append(a, a[:1])
    ),
}

STRING_TABLE_DAMAGE = {
    "object": b'{"dog": 0}',
    "string": b'"dog"',
    "number-in-list": b'["dog", 5]',
    "nested-list": b'[["dog"]]',
    "not-json": b'["dog"',
    "not-utf8": b'["\\xff"]'.replace(b"\\xff", b"\xff"),
}


class TestDamagedRecordColumns:
    """Format 5's typed columns: every malformed file fails the resume
    with a ServiceError naming it, even where META.json agrees with it."""

    @pytest.mark.parametrize("damage", COLUMN_DAMAGE)
    def test_column_file(self, prepared, published, damage):
        ckpt, snapshot = published
        path = _rewrite_columns(snapshot, COLUMN_DAMAGE[damage])
        _resume_fails_naming(prepared, ckpt, path)

    def test_padded_column_file(self, prepared, published):
        ckpt, snapshot = published
        path = snapshot / "kb-0.zip"
        data = path.read_bytes()
        path.unlink()
        path.write_bytes(data + bytes(8))
        _resume_fails_naming(prepared, ckpt, path)

    @pytest.mark.parametrize("damage", STRING_TABLE_DAMAGE)
    def test_string_table(self, prepared, published, damage):
        ckpt, snapshot = published
        path = _rewrite_segment(
            snapshot, "strings-0.json", STRING_TABLE_DAMAGE[damage]
        )
        _resume_fails_naming(prepared, ckpt, path)

    def test_string_table_shorter_than_meta(self, prepared, published):
        ckpt, snapshot = published
        names = json.loads((snapshot / "strings-0.json").read_text())
        path = _rewrite_segment(
            snapshot, "strings-0.json", json.dumps(names[:-1]).encode()
        )
        _resume_fails_naming(prepared, ckpt, path)

    def test_format_4_directory_is_rejected(self, prepared, published):
        # Format 4 stored records and sentences as JSON rows per segment.
        ckpt, snapshot = published
        meta_path = snapshot / "META.json"
        meta = json.loads(meta_path.read_text())
        meta["checkpoint_version"] = 4
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ServiceError, match="checkpoint format 4") as info:
            _resume(prepared[0], ckpt)
        assert str(meta_path) in str(info.value)


def _journal_entry(ckpt, seq, change):
    """Rewrite the journal entry at ``seq`` with ``change`` applied."""
    path = ckpt / "journal.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    (entry,) = [e for e in entries if e["seq"] == seq]
    change(entry)
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))


def _truncate_in_place(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


BATCH_FILE_DAMAGE = {
    "missing": lambda path: path.unlink(),
    "truncated": _truncate_in_place,
    "padded": lambda path: path.write_bytes(path.read_bytes() + b"\n"),
    "corrupt-row": lambda path: path.write_bytes(
        b"x" + path.read_bytes()[1:]
    ),
}


class TestDamagedBatchFile:
    """A sentences file a journal entry names, damaged before replay."""

    @pytest.mark.parametrize("damage", BATCH_FILE_DAMAGE)
    def test_file(self, prepared, published, damage):
        ckpt, _ = published
        path = ckpt / "sentences-3.jsonl"
        BATCH_FILE_DAMAGE[damage](path)
        _resume_fails_naming(prepared, ckpt, path)

    def test_wrong_row_count(self, prepared, published):
        ckpt, _ = published
        _journal_entry(
            ckpt, 4, lambda entry: entry["sentences"].update(
                rows=entry["sentences"]["rows"] + 1
            )
        )
        _resume_fails_naming(prepared, ckpt, ckpt / "sentences-4.jsonl")

    @pytest.mark.parametrize(
        "named", ["../sentences-3.jsonl", "embedding-2.npz", None],
        ids=["outside", "basis", "null"],
    )
    def test_name_that_is_not_a_batch_file(self, prepared, published, named):
        ckpt, _ = published
        _journal_entry(
            ckpt, 3, lambda entry: entry["sentences"].update(file=named)
        )
        _resume_fails_naming(prepared, ckpt, ckpt / "journal.jsonl")

    def test_entry_without_size(self, prepared, published):
        ckpt, _ = published
        _journal_entry(ckpt, 3, lambda entry: entry["sentences"].pop("bytes"))
        _resume_fails_naming(prepared, ckpt, ckpt / "journal.jsonl")


#: The batch sentences file's write, its fsync and the directory fsync.
BATCH_FILE_FAULTS = [("write", 1), ("fsync", 1), ("fsync", 2)]


@pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC],
                         ids=["EIO", "ENOSPC"])
@pytest.mark.parametrize("op,k", BATCH_FILE_FAULTS,
                         ids=[f"{o}{k}" for o, k in BATCH_FILE_FAULTS])
def test_io_fault_mid_batch_file(prepared, published, service_corpus,
                                 tmp_path, monkeypatch, op, k, code):
    ckpt, _ = published
    session = prepared[0].session(
        policy=POLICY, checkpoint_dir=ckpt, resume=True
    )
    journal_path = ckpt / "journal.jsonl"
    committed = journal_path.read_bytes()
    batch = list(service_corpus.batches(BATCH_SIZE))[4]
    faulty = FaultyOS(op, k, code)
    monkeypatch.setattr(checkpoint, "os", faulty)
    with pytest.raises(OSError) as info:
        session.ingest(batch)
    assert faulty.fired
    assert info.value.errno == code
    monkeypatch.undo()
    assert journal_path.read_bytes() == committed
    with pytest.raises(ServiceError, match="resume"):
        session.ingest(batch)
    _assert_resumes_identically(prepared, ckpt, tmp_path)


def test_orphan_batch_file_is_never_read(prepared, published,
                                         service_corpus, tmp_path):
    # A batch that died between its sentences file and its journal entry
    # leaves the file behind; no entry names it.
    ckpt, _ = published
    orphan = ckpt / "sentences-5.jsonl"
    orphan.write_bytes(b"not a sentence\n")
    _assert_resumes_identically(prepared, ckpt, tmp_path)
    # The next batch at that seq overwrites it, and a resume reads the
    # new file.
    session = prepared[0].session(
        policy=POLICY, checkpoint_dir=ckpt, resume=True
    )
    session.ingest(list(service_corpus.batches(BATCH_SIZE))[4])
    assert orphan.read_bytes() != b"not a sentence\n"
    live = _kb_bytes(session.kb, tmp_path / "live5.jsonl")
    assert _kb_bytes(
        _resume(prepared[0], ckpt).kb, tmp_path / "resumed5.jsonl"
    ) == live
