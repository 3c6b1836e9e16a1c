"""Durable session checkpoints: segmented, append-only snapshots.

Layout of a checkpoint directory::

    journal.jsonl          redo journal (see repro.service.journal)
    sentences-<seq>.jsonl  the new sentences of batch seq, one
                           sentence_to_json row each, named by its
                           journal entry
    embedding-<seq>.npz    the detector basis the cleaning pass at seq
                           fitted, named by that pass's journal entry
    CURRENT                name of the active snapshot directory
    snapshot-<seq>/        one self-contained snapshot
        META.json          session meta at seq, the ordered segment list
                           (file, kind, rows, bytes), checkpoint_version
                           and the KB schema_version
        strings-<n>.json   the names snapshot generation n adds to the
                           string table (a JSON list of strings)
        kb-<n>.zip         the records generation n added, as int64
                           columns over the string table
                           (repro.kb.serialize.record_columns) in an
                           uncompressed .npz archive
        sentences-<seq>.jsonl  a batch's sentences file, hard-linked
        corpus-<n>.jsonl   generation n's sentences, when no batch files
                           hold them (a snapshot outside a session)
        state.json         the KB's mutable state: inactive rids, dead
                           triggers per rid, removed and re-extracted
                           pairs, the record and pair counts
        embedding-<seq>.npz  the session's live detector basis, if any
                           (META.json's ``embedding`` names it)

The format rests on two append-only invariants.  A record's rid, sid,
concept, instances, triggers and iteration never change after it is
committed (only its activity and trigger liveness do), and the session
corpus only grows.  So a snapshot writes just the records added since the
previous one as new segments, hard-links the previous snapshot's
segments into its own directory (every published directory stays
complete on its own, and nothing needs garbage collection), and rewrites
only the small ``state.json`` and ``META.json``.

Each fact is encoded once.  A batch's sentences are written to their
sentences file before the journal entry that names it; replay reads the
file, and the next snapshot hard-links it as a corpus segment instead of
encoding the sentences again.  A record is encoded once, into its
generation's columns, and its names once, into the string table of the
generation that first used them.  The live detector basis is linked in
the same way as the sentences files, from the directory itself when a
pass since the last snapshot fitted it, else from the published snapshot.
Once the journal is truncated, no entry names a sentences or basis file
in the directory itself, so those are deleted.

A snapshot costs O(new records + mutable state) plus one link per batch
file; loading replays the segments in order — each record through
:meth:`~repro.kb.store.KnowledgeBase.add_extraction`, as
:func:`repro.kb.serialize.load_kb` does — applies ``state.json`` and
checks the counts.

The store remembers the chain it last published or loaded: which KB
object, how many records and sentences its segments hold, and its string
table.  A snapshot of any other KB, or of a sentence list whose prefix no
longer matches, starts a fresh base; a snapshot at the seq it already
published writes nothing, so ``CURRENT`` never names a directory that is
being replaced.

Snapshots are written to a temp directory, every new file and the
directory itself fsynced, renamed into place and only then published by
atomically rewriting ``CURRENT`` — a crash at any point leaves either the
old snapshot or the new one, never a torn mix.  The journal is truncated
after publication; if the process dies in between, replay's ``seq`` guard
skips the already-covered entries.  A sentences or basis file is written
and fsynced, with its directory, before the journal entry that names it,
so a named file is always complete and a file no entry names (the batch
died before its commit) is never read; the next batch at that seq
overwrites it.  Every load failure raises
:class:`~repro.errors.ServiceError` naming the file at fault.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import is_
from pathlib import Path

import numpy as np

from ..corpus.corpus import decode_strings, sentence_from_json, sentence_to_json
from ..corpus.sentence import Sentence
from ..errors import (
    CorpusError, KnowledgeBaseError, LearningError, ServiceError,
)
from ..kb.serialize import (
    SCHEMA_VERSION,
    apply_state,
    kb_state,
    record_columns,
    replay_columns,
)
from ..kb.store import KnowledgeBase
from ..learning.embedding import FrozenEmbedding
from .journal import Journal

__all__ = ["CheckpointStore", "SnapshotWrite", "CHECKPOINT_VERSION"]

#: Version of the checkpoint directory layout and META schema.  Version 4
#: added the detector basis file a session resumes its embedding from;
#: version 5 stores records as typed columns and a batch's sentences in
#: the file its journal entry names.
CHECKPOINT_VERSION = 5

_SNAPSHOT_NAME = re.compile(r"snapshot-\d+")
_BASIS_NAME = re.compile(r"embedding-\d+\.npz")
_BATCH_NAME = re.compile(r"sentences-\d+\.jsonl")
#: The ``.npy`` header ``np.save`` writes for a little-endian float64 or
#: int64 array.
_NPY_HEADER = re.compile(
    r"\{'descr': '(<f8|<i8)', 'fortran_order': (True|False), "
    r"'shape': \(((?:\d+, ?)*\d*)\), \} *\n"
)


@dataclass(frozen=True)
class SnapshotWrite:
    """What one :meth:`CheckpointStore.save_snapshot` call wrote."""

    records_written: int
    #: New sentences, whether in linked sentences files or encoded here.
    sentences_written: int
    bytes_written: int
    fsyncs: int
    #: Segments carried over from the previous snapshot by hard link.
    segments_linked: int


@dataclass(frozen=True)
class _Chain:
    """The segments of the published snapshot, for the KB they hold."""

    kb: KnowledgeBase | None = None
    snapshot: str = ""
    segments: tuple[dict, ...] = ()
    records: int = 0
    sentences: int = 0
    last_sid: int | None = None
    #: name → id for every name in the segments' string tables.
    strings: dict[str, int] = field(default_factory=dict)

    @classmethod
    def covering(
        cls,
        kb: KnowledgeBase,
        snapshot: str,
        segments: Sequence[dict],
        sentences: Sequence[Sentence],
        strings: dict[str, int],
    ) -> "_Chain":
        """The chain whose segments hold all of ``kb`` and ``sentences``."""
        return cls(
            kb=kb,
            snapshot=snapshot,
            segments=tuple(segments),
            records=kb.num_records,
            sentences=len(sentences),
            last_sid=sentences[-1].sid if sentences else None,
            strings=strings,
        )


class _Tally:
    """Durable writes of one snapshot, with their byte and fsync counts."""

    def __init__(self) -> None:
        self.bytes = 0
        self.fsyncs = 0

    def write(self, path: Path, data: bytes) -> None:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        self.bytes += len(data)
        self.fsyncs += 1

    def sync_dir(self, path: Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self.fsyncs += 1


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """``arrays`` as an uncompressed ``.npz``, as ``np.savez`` lays it out
    but with fixed member timestamps, so equal arrays give equal bytes."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, array in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, array)
            archive.writestr(zipfile.ZipInfo(f"{name}.npy"), member.getvalue())
    return buffer.getvalue()


def _read_npz(source: Path | io.BytesIO, descr: str) -> dict[str, np.ndarray]:
    """The arrays of an uncompressed ``.npz`` whose members all have dtype
    ``descr`` (``"<f8"`` or ``"<i8"``), laid out as ``np.load`` would
    return them.

    Not ``np.load``: numpy parses every ``.npy`` header with
    ``ast.literal_eval``, whose closures are left in reference cycles that
    the collector, paused during resume, would hold until the pass ends.
    Nothing here unpickles; any member other than an array of ``descr``
    raises ``ValueError``.
    """
    arrays = {}
    with zipfile.ZipFile(source) as archive:
        for member in archive.namelist():
            data = archive.read(member)
            size = int.from_bytes(data[8:10], "little")
            header = _NPY_HEADER.fullmatch(
                data[10:10 + size].decode("latin-1")
            )
            if (
                data[:8] != b"\x93NUMPY\x01\x00" or header is None
                or header[1] != descr
            ):
                raise ValueError(f"{member} is not a {descr} .npy array")
            shape = tuple(int(n) for n in header[3].split(",") if n.strip())
            values = np.frombuffer(data, descr, offset=10 + size)
            if values.size != int(np.prod(shape)):
                raise ValueError(
                    f"{member} holds {values.size} values, not {shape}"
                )
            if header[2] == "True":
                array = values.reshape(shape[::-1]).T
            else:
                array = values.reshape(shape)
            arrays[member.removesuffix(".npy")] = array.copy(order="K")
    return arrays


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ServiceError(f"bad snapshot {what} {path}: {exc}") from exc


def _read_sized(path: Path, size, promiser: Path) -> bytes:
    """The bytes of ``path``, which ``promiser`` says hold ``size``."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ServiceError(f"unreadable segment {path}: {exc}") from exc
    if len(data) != size:
        raise ServiceError(
            f"segment {path} is truncated or padded: {promiser.name} "
            f"promises {size} bytes, the file holds {len(data)}"
        )
    return data


def _decode_rows(path: Path, lines: list[str]) -> list:
    """A segment's rows, decoded with one ``json.loads`` over all lines.

    When that fails, or yields other than one value per line (a line such
    as ``1,2``), the lines are decoded one by one, so the error names the
    line at fault.
    """
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
        if len(rows) == len(lines):
            return rows
    except ValueError:
        pass
    rows = []
    for number, line in enumerate(lines, start=1):
        try:
            rows.append(json.loads(line))
        except ValueError as exc:
            raise ServiceError(f"bad row at {path}:{number}: {exc!r}") from exc
    return rows


def _decode_sentences(
    path: Path, data: bytes, rows, promiser: Path
) -> list[Sentence]:
    """The ``rows`` sentences a sentences or corpus file holds."""
    try:
        lines = data.decode("utf-8").splitlines()
    except ValueError as exc:
        raise ServiceError(f"bad segment {path}: {exc}") from exc
    if len(lines) != rows:
        raise ServiceError(
            f"segment {path} is inconsistent: {promiser.name} promises "
            f"{rows} rows, the file holds {len(lines)}"
        )
    sentences = []
    for number, row in enumerate(_decode_rows(path, lines), start=1):
        try:
            sentences.append(sentence_from_json(row))
        except (CorpusError, KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad row at {path}:{number}: {exc!r}") from exc
    return sentences


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


class CheckpointStore:
    """Owns one checkpoint directory: snapshots plus the redo journal."""

    def __init__(self, directory: str | Path) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(self._dir / "journal.jsonl")
        self._chain = _Chain()
        # The sentences files written or replayed since the chain was
        # published or loaded, each with the sentences it holds.
        self._batches: list[tuple[dict, tuple[Sentence, ...]]] = []

    @property
    def directory(self) -> Path:
        """The checkpoint directory."""
        return self._dir

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _continued_chain(
        self, kb: KnowledgeBase, sentences: Sequence[Sentence]
    ) -> _Chain:
        """The published chain ``kb``/``sentences`` extend, else an empty
        one."""
        chain = self._chain
        if (
            chain.kb is not kb
            or kb.num_records < chain.records
            or len(sentences) < chain.sentences
            or not (self._dir / chain.snapshot).is_dir()
        ):
            return _Chain()
        if chain.sentences and sentences[chain.sentences - 1].sid != (
            chain.last_sid
        ):
            return _Chain()
        return chain

    def _batch_segments(self, sentences: Sequence[Sentence]) -> list[dict]:
        """Corpus segments for the sentences files that hold exactly
        ``sentences``, in order; empty when they do not."""
        held = [s for _, batch in self._batches for s in batch]
        if len(held) != len(sentences) or not all(map(is_, held, sentences)):
            return []
        return [{"kind": "corpus", **batch} for batch, _ in self._batches]

    def save_snapshot(
        self,
        *,
        seq: int,
        kb: KnowledgeBase,
        sentences: Sequence[Sentence],
        meta: dict,
        basis: str | None = None,
    ) -> SnapshotWrite:
        """Write and publish a snapshot covering journal entries ≤ seq.

        ``basis`` names the session's live basis file (see
        :meth:`write_basis`), which the snapshot links in and its META
        names.  The sentences files written (:meth:`write_batch`) or read
        (:meth:`read_batch`) since the last snapshot are linked in as its
        corpus segments when they hold exactly the new sentences;
        otherwise the new sentences are encoded into one segment.

        A snapshot at the seq this store already published writes
        nothing: ``seq`` fixes the journal prefix a snapshot covers, so
        the published directory holds this state already, and rewriting
        it would delete the directory ``CURRENT`` names before its
        replacement landed.
        """
        name = f"snapshot-{seq}"
        if self._chain.snapshot == name:
            return SnapshotWrite(0, 0, 0, 0, 0)
        tmp = self._dir / (name + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        os.mkdir(tmp)
        tally = _Tally()
        base = self._continued_chain(kb, sentences)
        segments = list(base.segments)
        linked = [(self._dir / base.snapshot / s["file"], s) for s in segments]
        new_sentences = sentences[base.sentences:]
        batches = self._batch_segments(new_sentences)
        linked += [(self._dir / batch["file"], batch) for batch in batches]
        if basis is not None:
            # Written since the published snapshot, or carried by it.
            source = self._dir / basis
            if not source.exists() and self._chain.snapshot:
                source = self._dir / self._chain.snapshot / basis
            linked.append((source, {"file": basis}))
        for source, segment in linked:
            os.link(source, tmp / segment["file"])
        strings = dict(base.strings)
        records = [
            kb.record(rid) for rid in range(base.records, kb.num_records)
        ]
        added, columns = record_columns(records, strings)
        generation = sum(1 for s in segments if s["kind"] == "kb")
        new = []
        if added:
            new.append(("strings", f"strings-{generation}.json", len(added),
                        json.dumps(added).encode()))
        if records:
            new.append(("kb", f"kb-{generation}.zip", len(records),
                        _npz_bytes(columns)))
        segments += batches
        if new_sentences and not batches:
            index = sum(1 for s in segments if s["kind"] == "corpus")
            new.append((
                "corpus", f"corpus-{index}.jsonl", len(new_sentences),
                _jsonl(map(sentence_to_json, new_sentences)),
            ))
        for kind, file, rows, data in new:
            tally.write(tmp / file, data)
            segments.append(
                {"kind": kind, "file": file, "rows": rows, "bytes": len(data)}
            )
        tally.write(tmp / "state.json", json.dumps(kb_state(kb)).encode())
        payload = dict(meta)
        payload["checkpoint_version"] = CHECKPOINT_VERSION
        payload["schema_version"] = SCHEMA_VERSION
        payload["seq"] = seq
        payload["segments"] = segments
        payload["embedding"] = basis
        tally.write(tmp / "META.json", json.dumps(payload).encode())
        tally.sync_dir(tmp)
        final = self._dir / name
        if final.exists():
            shutil.rmtree(final)
        os.rename(tmp, final)
        tally.sync_dir(self._dir)
        # Publish: CURRENT flips atomically to the new snapshot.
        pointer = self._dir / "CURRENT.tmp"
        tally.write(pointer, (name + "\n").encode())
        os.replace(pointer, self._dir / "CURRENT")
        # CURRENT names the new snapshot from here on, so a retry at this
        # seq after a failure below must leave it alone.  Until the journal
        # reset, the old snapshot plus the journal still resume as well.
        self._chain = _Chain.covering(kb, name, segments, sentences, strings)
        self._batches = []
        tally.sync_dir(self._dir)
        # The journal is now fully covered; entries ≤ seq are dead either way.
        self.journal.reset()
        for stale in self._dir.glob("snapshot-*"):
            if stale.name != name and stale.is_dir():
                shutil.rmtree(stale)
        for pattern in ("sentences-*.jsonl", "embedding-*.npz"):
            for stale in self._dir.glob(pattern):
                stale.unlink()
        return SnapshotWrite(
            records_written=len(records),
            sentences_written=len(new_sentences),
            bytes_written=tally.bytes,
            fsyncs=tally.fsyncs,
            segments_linked=len(base.segments),
        )

    # ------------------------------------------------------------------
    # Batch sentences
    # ------------------------------------------------------------------
    def write_batch(self, seq: int, sentences: Sequence[Sentence]) -> dict:
        """Durably write the new sentences of the batch at ``seq``.

        The file and the directory are fsynced before this returns what
        the journal entry that names the file carries: its name, row count
        and byte size.  A file left by a batch that died before its entry
        committed is overwritten.
        """
        name = f"sentences-{seq}.jsonl"
        data = _jsonl(map(sentence_to_json, sentences))
        tally = _Tally()
        tally.write(self._dir / name, data)
        tally.sync_dir(self._dir)
        batch = {"file": name, "rows": len(sentences), "bytes": len(data)}
        self._batches.append((batch, tuple(sentences)))
        return batch

    def read_batch(self, batch) -> list[Sentence]:
        """The sentences of the file a journal entry names (its
        :meth:`write_batch` record)."""
        source = self.journal.path
        try:
            name, rows, size = batch["file"], batch["rows"], batch["bytes"]
        except (KeyError, TypeError) as exc:
            raise ServiceError(
                f"{source} names no sentences file in {batch!r}"
            ) from exc
        if not isinstance(name, str) or not _BATCH_NAME.fullmatch(name):
            raise ServiceError(f"{source} names {name!r}, not a sentences file")
        path = self._dir / name
        sentences = _decode_sentences(
            path, _read_sized(path, size, source), rows, source
        )
        self._batches.append((batch, tuple(sentences)))
        return sentences

    # ------------------------------------------------------------------
    # The detector basis
    # ------------------------------------------------------------------
    def write_basis(self, seq: int, embedding: FrozenEmbedding) -> str:
        """Durably write the basis the cleaning pass at ``seq`` fitted.

        The file and the directory are fsynced before this returns the
        file's name, so the journal entry that names it may follow.
        """
        name = f"embedding-{seq}.npz"
        tally = _Tally()
        tally.write(self._dir / name, _npz_bytes(embedding.to_arrays()))
        tally.sync_dir(self._dir)
        return name

    def read_basis(
        self, name: str, snapshot: str | None = None
    ) -> FrozenEmbedding:
        """The basis file ``name`` a journal entry names, or the one the
        META of ``snapshot`` (a snapshot directory's name) names."""
        source = (
            self._dir / snapshot / "META.json" if snapshot
            else self.journal.path
        )
        if not isinstance(name, str) or not _BASIS_NAME.fullmatch(name):
            raise ServiceError(f"{source} names {name!r}, not a basis file")
        path = source.parent / name
        try:
            arrays = _read_npz(path, "<f8")
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise ServiceError(f"unreadable basis {path}: {exc!r}") from exc
        try:
            return FrozenEmbedding.from_arrays(arrays)
        except LearningError as exc:
            raise ServiceError(f"bad basis {path}: {exc}") from exc

    def _published(self) -> Path | None:
        """The snapshot directory ``CURRENT`` names, or ``None``."""
        pointer = self._dir / "CURRENT"
        if not pointer.exists():
            return None
        try:
            name = pointer.read_text(encoding="utf-8").strip()
        except (OSError, ValueError) as exc:
            raise ServiceError(f"unreadable pointer {pointer}: {exc}") from exc
        if not _SNAPSHOT_NAME.fullmatch(name):
            raise ServiceError(
                f"corrupt pointer {pointer}: {name[:40]!r} does not name a "
                "snapshot directory"
            )
        snapshot = self._dir / name
        if not snapshot.is_dir():
            raise ServiceError(
                f"{pointer} points at missing snapshot {snapshot}"
            )
        return snapshot

    def load_snapshot(
        self,
    ) -> tuple[KnowledgeBase, list[Sentence], dict] | None:
        """Load the published snapshot, or ``None`` when there is none."""
        self._batches = []
        snapshot = self._published()
        if snapshot is None:
            return None
        meta_path = snapshot / "META.json"
        meta = _read_json(meta_path, "META")
        if not isinstance(meta, dict):
            raise ServiceError(f"bad snapshot META {meta_path}: not an object")
        version = meta.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise ServiceError(
                f"{meta_path} declares checkpoint format {version!r}; this "
                f"reader understands only format {CHECKPOINT_VERSION} "
                "(record columns and batch sentences files) — start a "
                "fresh checkpoint directory"
            )
        schema = meta.get("schema_version")
        if schema != SCHEMA_VERSION:
            raise ServiceError(
                f"{meta_path} declares KB record schema {schema!r}; this "
                f"reader understands schema {SCHEMA_VERSION}"
            )
        segments = meta.get("segments")
        if not isinstance(segments, list):
            raise ServiceError(
                f"bad snapshot META {meta_path}: no segment list"
            )
        kb = KnowledgeBase()
        strings: list[str] = []
        sentences: list[Sentence] = []
        for segment in segments:
            self._replay_segment(snapshot, segment, kb, strings, sentences)
        state_path = snapshot / "state.json"
        state = _read_json(state_path, "state")
        try:
            apply_state(kb, state, state_path)
        except (KnowledgeBaseError, LookupError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"snapshot state {state_path} does not match its "
                f"segments: {exc!r}"
            ) from exc
        self._chain = _Chain.covering(
            kb, snapshot.name, segments, sentences,
            {name: index for index, name in enumerate(strings)},
        )
        return kb, sentences, meta

    @staticmethod
    def _replay_segment(
        snapshot: Path,
        segment: dict,
        kb: KnowledgeBase,
        strings: list[str],
        sentences: list[Sentence],
    ) -> None:
        """Check one segment against its META entry, then replay it."""
        meta_path = snapshot / "META.json"
        try:
            kind, path = segment["kind"], snapshot / segment["file"]
            rows, size = segment["rows"], segment["bytes"]
        except (KeyError, TypeError) as exc:
            raise ServiceError(
                f"bad segment entry {segment!r} in {meta_path}"
            ) from exc
        if kind not in ("strings", "kb", "corpus"):
            raise ServiceError(f"segment {path} has unknown kind {kind!r}")
        data = _read_sized(path, size, meta_path)
        if kind == "corpus":
            sentences.extend(_decode_sentences(path, data, rows, meta_path))
            return
        try:
            if kind == "strings":
                added = decode_strings("strings", json.loads(data))
                if len(added) != rows:
                    raise ValueError(
                        f"META.json promises {rows} strings, the table "
                        f"holds {len(added)}"
                    )
                strings.extend(added)
            else:
                columns = _read_npz(io.BytesIO(data), "<i8")
                records = len(columns.get("sid", ()))
                if records != rows:
                    raise ValueError(
                        f"META.json promises {rows} records, the 'sid' "
                        f"column holds {records}"
                    )
                replay_columns(kb, strings, columns)
        except (
            KnowledgeBaseError, ValueError, zipfile.BadZipFile,
        ) as exc:
            raise ServiceError(f"bad segment {path}: {exc}") from exc
