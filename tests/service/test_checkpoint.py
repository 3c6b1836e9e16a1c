"""Tests for the checkpoint store (snapshots + journal lifecycle)."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Sentence
from repro.errors import ServiceError
from repro.kb import IsAPair, KnowledgeBase, RollbackEngine, save_kb
from repro.kb.serialize import SCHEMA_VERSION
from repro.service import CheckpointStore
from repro.service.checkpoint import CHECKPOINT_VERSION

from ..kb.state import assert_same_state


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_extraction(0, "animal", ("dog", "cat"), iteration=1)
    return kb


def _sentences() -> list[Sentence]:
    return [
        Sentence(
            sid=0, surface="animals such as dog and cat",
            concepts=("animal",), instances=("dog", "cat"),
        ),
        Sentence(
            sid=1, surface="food from animals such as pork",
            concepts=("food", "animal"), instances=("pork",),
        ),
    ]


class TestCheckpointStore:
    def test_empty_store_has_no_state(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load_snapshot() is None

    def test_snapshot_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        kb = _kb()
        store.save_snapshot(
            seq=3, kb=kb, sentences=_sentences(), meta={"iteration": 2}
        )
        loaded = store.load_snapshot()
        assert loaded is not None
        loaded_kb, sentences, meta = loaded
        assert set(loaded_kb.pairs()) == set(kb.pairs())
        assert [s.sid for s in sentences] == [0, 1]
        assert sentences[1].concepts == ("food", "animal")
        assert meta["seq"] == 3
        assert meta["iteration"] == 2
        assert meta["checkpoint_version"] == CHECKPOINT_VERSION

    def test_snapshot_resets_journal(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.journal.append({"seq": 1, "type": "batch"})
        store.save_snapshot(seq=1, kb=_kb(), sentences=[], meta={})
        assert list(store.journal.entries()) == []

    def test_new_snapshot_replaces_old(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_snapshot(seq=1, kb=_kb(), sentences=[], meta={})
        store.save_snapshot(seq=2, kb=_kb(), sentences=[], meta={})
        _, _, meta = store.load_snapshot()
        assert meta["seq"] == 2
        snapshots = [
            p.name for p in store.directory.glob("snapshot-*") if p.is_dir()
        ]
        assert snapshots == ["snapshot-2"]

    def test_dangling_current_pointer_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        (store.directory / "CURRENT").write_text("snapshot-9\n")
        with pytest.raises(ServiceError):
            store.load_snapshot()

    def test_wrong_checkpoint_version_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_snapshot(seq=1, kb=_kb(), sentences=[], meta={})
        snapshot = store.directory / "snapshot-1"
        meta = json.loads((snapshot / "META.json").read_text())
        meta["checkpoint_version"] = 99
        (snapshot / "META.json").write_text(json.dumps(meta))
        with pytest.raises(ServiceError):
            store.load_snapshot()

    def test_corrupt_meta_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_snapshot(seq=1, kb=_kb(), sentences=[], meta={})
        (store.directory / "snapshot-1" / "META.json").write_text("{broken")
        with pytest.raises(ServiceError):
            store.load_snapshot()


def _grow(kb: KnowledgeBase, n: int) -> None:
    """Commit ``n`` more records, each triggered by the first pair."""
    dog = IsAPair("animal", "dog")
    for _ in range(n):
        kb.add_extraction(
            100 + kb.num_records, "animal", ("dog", f"pet{kb.num_records}"),
            triggers=(dog,), iteration=2,
        )


def _segments(store: CheckpointStore, seq: int) -> list[dict]:
    meta = json.loads(
        (store.directory / f"snapshot-{seq}" / "META.json").read_text()
    )
    return meta["segments"]


def _kb_bytes(kb: KnowledgeBase, path) -> bytes:
    save_kb(kb, path)
    return path.read_bytes()


class TestIncrementalSnapshots:
    def test_new_records_write_one_segment_of_that_many_rows(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        kb = _kb()
        store.save_snapshot(seq=1, kb=kb, sentences=_sentences(), meta={})
        before = _segments(store, 1)
        _grow(kb, 5)
        written = store.save_snapshot(
            seq=2, kb=kb, sentences=_sentences(), meta={}
        )
        assert written.records_written == 5
        assert written.sentences_written == 0
        assert written.segments_linked == 3
        after = _segments(store, 2)
        assert after[:3] == before
        # Five new names (pet1..pet5) and the five records' columns.
        assert after[3:] == [
            {"kind": "strings", "file": "strings-1.json", "rows": 5,
             "bytes": after[3]["bytes"]},
            {"kind": "kb", "file": "kb-1.zip", "rows": 5,
             "bytes": after[4]["bytes"]},
        ]

    def test_nothing_new_writes_no_segment(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        kb = _kb()
        store.save_snapshot(seq=1, kb=kb, sentences=_sentences(), meta={})
        written = store.save_snapshot(
            seq=2, kb=kb, sentences=_sentences(), meta={}
        )
        assert (written.records_written, written.sentences_written) == (0, 0)
        assert [(s["file"], s["rows"]) for s in _segments(store, 2)] == [
            ("strings-0.json", 3), ("kb-0.zip", 1), ("corpus-0.jsonl", 2)
        ]
        snapshot = store.directory / "snapshot-2"
        names = sorted(p.name for p in snapshot.iterdir())
        assert names == [
            "META.json", "corpus-0.jsonl", "kb-0.zip", "state.json",
            "strings-0.json",
        ]

    def test_mutations_without_new_records_land_in_state(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        kb = _kb()
        _grow(kb, 3)
        store.save_snapshot(seq=1, kb=kb, sentences=[], meta={})
        RollbackEngine(kb).rollback_pair(IsAPair("animal", "dog"))
        written = store.save_snapshot(seq=2, kb=kb, sentences=[], meta={})
        assert written.records_written == 0
        loaded, _, _ = CheckpointStore(store.directory).load_snapshot()
        assert _kb_bytes(loaded, tmp_path / "a") == _kb_bytes(
            kb, tmp_path / "b"
        )

    def test_other_kb_object_writes_a_fresh_base(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_snapshot(seq=1, kb=_kb(), sentences=_sentences(), meta={})
        written = store.save_snapshot(
            seq=2, kb=_kb(), sentences=_sentences(), meta={}
        )
        assert written.segments_linked == 0
        assert written.records_written == 1
        assert written.sentences_written == 2

    def test_sentence_prefix_mismatch_writes_a_fresh_base(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        kb = _kb()
        store.save_snapshot(seq=1, kb=kb, sentences=_sentences(), meta={})
        written = store.save_snapshot(
            seq=2, kb=kb, sentences=_sentences()[::-1], meta={}
        )
        assert written.segments_linked == 0
        _, sentences, _ = CheckpointStore(store.directory).load_snapshot()
        assert [s.sid for s in sentences] == [1, 0]

    def test_loaded_kb_continues_the_chain(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_snapshot(seq=1, kb=_kb(), sentences=_sentences(), meta={})
        reopened = CheckpointStore(store.directory)
        kb, sentences, _ = reopened.load_snapshot()
        _grow(kb, 2)
        written = reopened.save_snapshot(
            seq=2, kb=kb, sentences=sentences, meta={}
        )
        assert written.segments_linked == 3
        assert written.records_written == 2

    def test_counters_cover_every_durable_write(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        written = store.save_snapshot(
            seq=1, kb=_kb(), sentences=_sentences(), meta={}
        )
        snapshot = store.directory / "snapshot-1"
        on_disk = sum(p.stat().st_size for p in snapshot.iterdir())
        pointer = (store.directory / "CURRENT").stat().st_size
        assert written.bytes_written == on_disk + pointer
        # five files + CURRENT, the snapshot dir, the parent twice
        assert written.fsyncs == 9

    def test_snapshot_directory_is_fsynced_before_rename(
        self, tmp_path, monkeypatch
    ):
        import repro.service.checkpoint as checkpoint

        store = CheckpointStore(tmp_path / "ckpt")
        log: list[tuple[str, str]] = []
        real_open, real_rename = checkpoint.os.open, checkpoint.os.rename

        class Recorder:
            def __getattr__(self, name):
                return getattr(os, name)

            def open(self, path, flags, *args):
                if flags == os.O_RDONLY:
                    log.append(("fsync-dir", str(path)))
                return real_open(path, flags, *args)

            def rename(self, src, dst):
                log.append(("rename", str(src)))
                return real_rename(src, dst)

        monkeypatch.setattr(checkpoint, "os", Recorder())
        store.save_snapshot(seq=1, kb=_kb(), sentences=[], meta={})
        tmp = str(store.directory / "snapshot-1.tmp")
        assert log.index(("fsync-dir", tmp)) < log.index(("rename", tmp))


class TestLoadErrors:
    """Every load failure is a ServiceError naming the file at fault."""

    @pytest.fixture
    def store(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        kb = _kb()
        store.save_snapshot(seq=1, kb=kb, sentences=_sentences(), meta={})
        _grow(kb, 2)
        store.save_snapshot(seq=2, kb=kb, sentences=_sentences(), meta={})
        return store

    @staticmethod
    def _fails_naming(store, path, match=None):
        with pytest.raises(ServiceError, match=match) as info:
            CheckpointStore(store.directory).load_snapshot()
        assert str(path) in str(info.value)
        return info.value

    def test_missing_segment(self, store):
        segment = store.directory / "snapshot-2" / "kb-1.zip"
        segment.unlink()
        error = self._fails_naming(store, segment)
        assert isinstance(error.__cause__, OSError)

    def test_truncated_segment(self, store):
        segment = store.directory / "snapshot-2" / "kb-1.zip"
        segment.write_bytes(segment.read_bytes()[:-10])
        self._fails_naming(store, segment, match="truncated or padded")

    def test_padded_segment(self, store):
        segment = store.directory / "snapshot-2" / "corpus-0.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines + lines[-1:]))
        self._fails_naming(store, segment, match="truncated or padded")

    def test_row_count_disagrees_with_meta(self, store):
        meta_path = store.directory / "snapshot-2" / "META.json"
        meta = json.loads(meta_path.read_text())
        assert meta["segments"][4]["file"] == "kb-1.zip"
        meta["segments"][4]["rows"] += 1
        meta_path.write_text(json.dumps(meta))
        self._fails_naming(
            store, store.directory / "snapshot-2" / "kb-1.zip",
            match="records",
        )

    def test_corrupt_row_names_file_and_line(self, store):
        segment = store.directory / "snapshot-2" / "corpus-0.jsonl"
        data = segment.read_bytes()
        segment.write_bytes(b"x" + data[1:])
        error = self._fails_naming(store, f"{segment}:1")
        assert error.__cause__ is not None

    def test_two_rows_on_one_line_names_the_line(self, store):
        # Line 1 holds rows 1 and 2 ("row,row" is valid inside the
        # one-array fast path), so the array has one row too many; that
        # must fail at line 1, with the byte count in META.json made to
        # agree so the size check does not fire first.
        snapshot = store.directory / "snapshot-2"
        segment = snapshot / "corpus-0.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0].rstrip(b"\n") + b"," + lines[1]
        segment.write_bytes(b"".join(lines))
        meta_path = snapshot / "META.json"
        meta = json.loads(meta_path.read_text())
        for entry in meta["segments"]:
            if entry["file"] == segment.name:
                entry["bytes"] = segment.stat().st_size
        meta_path.write_text(json.dumps(meta))
        self._fails_naming(store, f"{segment}:1", match="Extra data")

    def test_mistyped_corpus_row_names_file_and_line(self, store):
        # A string sid replayed silently before rows were type-checked.
        segment = store.directory / "snapshot-2" / "corpus-0.jsonl"
        lines = segment.read_text().splitlines(keepends=True)
        row = json.loads(lines[0])
        row["sid"] = str(row["sid"])
        lines[0] = json.dumps(row) + "\n"
        segment.write_text("".join(lines))
        meta_path = store.directory / "snapshot-2" / "META.json"
        meta = json.loads(meta_path.read_text())
        for entry in meta["segments"]:
            if entry["file"] == segment.name:
                entry["bytes"] = segment.stat().st_size
        meta_path.write_text(json.dumps(meta))
        self._fails_naming(store, f"{segment}:1", match="'sid'")

    def test_corrupt_corpus_row(self, store):
        segment = store.directory / "snapshot-2" / "corpus-0.jsonl"
        data = segment.read_bytes().replace(b'"sid"', b'"xid"', 1)
        segment.write_bytes(data)
        self._fails_naming(store, f"{segment}:1")

    def test_unparsable_state(self, store):
        state = store.directory / "snapshot-2" / "state.json"
        state.write_text("{not json")
        self._fails_naming(store, state)

    def test_counts_mismatch_after_replay(self, store):
        state_path = store.directory / "snapshot-2" / "state.json"
        state = json.loads(state_path.read_text())
        state["pairs"] += 1
        state_path.write_text(json.dumps(state))
        error = self._fails_naming(store, state_path)
        assert error.__cause__ is not None

    def test_tampered_restart_count_names_the_state(self, tmp_path):
        # A re-extracted pair's count is recounted from its records, and
        # a stored count that disagrees is refused, not loaded.
        kb = _kb()
        kb.remove_pair(IsAPair("animal", "cat"))
        kb.add_extraction(1, "animal", ("cat",), iteration=2)
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_snapshot(seq=1, kb=kb, sentences=_sentences(), meta={})
        state_path = store.directory / "snapshot-1" / "state.json"
        state = json.loads(state_path.read_text())
        assert state["restarts"] == [["animal", "cat", 1, 1]]
        state["restarts"][0][3] = 2
        state_path.write_text(json.dumps(state))
        self._fails_naming(store, state_path, match="count 2")

    def test_v1_directory_is_refused_by_name(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        snapshot = ckpt / "snapshot-3"
        snapshot.mkdir(parents=True)
        save_kb(_kb(), snapshot / "kb.jsonl")
        (snapshot / "corpus.jsonl").write_text("")
        (snapshot / "META.json").write_text(
            json.dumps({"checkpoint_version": 1, "seq": 3})
        )
        (ckpt / "CURRENT").write_text("snapshot-3\n")
        with pytest.raises(ServiceError, match="checkpoint format 1") as info:
            CheckpointStore(ckpt).load_snapshot()
        assert str(snapshot / "META.json") in str(info.value)

    def test_v2_directory_is_refused_by_name(self, store):
        # Format 2 state.json lacked re-extracted pairs, so its KBs would
        # load with the wrong pair histories.
        meta_path = store.directory / "snapshot-2" / "META.json"
        meta = json.loads(meta_path.read_text())
        meta["checkpoint_version"] = 2
        meta_path.write_text(json.dumps(meta))
        self._fails_naming(store, meta_path, match="checkpoint format 2")

    def test_schema_version_mismatch(self, store):
        meta_path = store.directory / "snapshot-2" / "META.json"
        meta = json.loads(meta_path.read_text())
        meta["schema_version"] = SCHEMA_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        self._fails_naming(store, meta_path, match="schema")

    def test_corrupt_current_pointer(self, store):
        pointer = store.directory / "CURRENT"
        pointer.write_bytes(b"\xff\xfe garbage")
        self._fails_naming(store, pointer)
        pointer.write_text("../elsewhere\n")
        self._fails_naming(store, pointer)


@st.composite
def _programs(draw):
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 3),
                          st.lists(st.integers(0, 5), min_size=1,
                                   max_size=3, unique=True),
                          st.booleans()),
                st.tuples(st.just("rollback_pair"), st.integers(0, 50)),
                st.tuples(st.just("rollback_record"), st.integers(0, 50)),
                st.tuples(st.just("remove_pair"), st.integers(0, 50)),
                st.tuples(st.just("sentence"), st.integers(1, 3)),
                st.tuples(st.just("snapshot")),
            ),
            max_size=40,
        )
    )


class TestInterleavings:
    @settings(max_examples=60, deadline=None)
    @given(program=_programs())
    def test_every_snapshot_loads_back_to_the_live_bytes(self, program):
        concepts = ("animal", "food", "city", "company")
        kb = KnowledgeBase()
        sentences: list[Sentence] = []
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            store = CheckpointStore(tmp / "ckpt")
            seq = 0
            for op in (*program, ("snapshot",)):
                kind = op[0]
                pairs = sorted(kb.pairs())
                if kind == "add":
                    _, c, instances, triggered = op
                    concept = concepts[c]
                    known = [p for p in pairs if p.concept == concept]
                    triggers = (known[0],) if triggered and known else ()
                    kb.add_extraction(
                        len(sentences), concept,
                        tuple(f"e{i}" for i in instances),
                        triggers=triggers, iteration=2 if triggers else 1,
                    )
                elif kind == "rollback_pair" and pairs:
                    RollbackEngine(kb).rollback_pair(pairs[op[1] % len(pairs)])
                elif kind == "rollback_record" and kb.num_records:
                    rid = op[1] % kb.num_records
                    if kb.is_active(rid):
                        RollbackEngine(kb).rollback_records([rid])
                elif kind == "remove_pair" and pairs:
                    kb.remove_pair(pairs[op[1] % len(pairs)])
                elif kind == "sentence":
                    for _ in range(op[1]):
                        sid = len(sentences)
                        sentences.append(Sentence(
                            sid=sid, surface=f"animals such as e{sid}",
                            concepts=("animal",), instances=(f"e{sid}",),
                        ))
                elif kind == "snapshot":
                    seq += 1
                    store.save_snapshot(
                        seq=seq, kb=kb, sentences=sentences, meta={}
                    )
                    loaded, loaded_sentences, _ = CheckpointStore(
                        store.directory
                    ).load_snapshot()
                    assert loaded_sentences == sentences
                    assert _kb_bytes(loaded, tmp / "loaded") == _kb_bytes(
                        kb, tmp / "live"
                    )
                    assert_same_state(loaded, kb)


class TestSessionChain:
    def test_resume_ingest_snapshot_continues_the_chain(
        self, service_corpus, tmp_path
    ):
        from repro.service import IngestPolicy

        from .conftest import make_pipeline

        policy = IngestPolicy(
            staleness_threshold=600, drift_threshold=0.08, min_new_pairs=10
        )
        batches = list(service_corpus.batches(400))
        reference = make_pipeline().session(policy=policy)
        for batch in batches:
            reference.ingest(batch)

        ckpt = tmp_path / "ckpt"
        session = make_pipeline().session(
            policy=policy, checkpoint_dir=ckpt, checkpoint_every=1
        )
        for batch in batches[:2]:
            session.ingest(batch)
        store = CheckpointStore(ckpt)
        before = _segments(store, 2)
        del session
        resumed = make_pipeline().session(
            policy=policy, checkpoint_dir=ckpt, checkpoint_every=1,
            resume=True,
        )
        for batch in batches[2:]:
            resumed.ingest(batch)
        after = _segments(store, len(batches))
        assert after[: len(before)] == before
        # Each snapshot with new content links its batch's sentences file
        # and writes record columns (the last batch is all duplicates here
        # and adds none); no sentence is encoded a second time.
        added = [s["file"] for s in after[len(before):]]
        assert [f for f in added if f.startswith("kb-")] == [
            f"kb-{n}.zip" for n in range(2, len(batches) - 1)
        ]
        assert [f for f in added if f.startswith("sentences-")] == [
            f"sentences-{seq}.jsonl" for seq in range(3, len(batches))
        ]
        assert not [f for f in added if f.startswith("corpus-")]
        expected = _kb_bytes(reference.kb, tmp_path / "reference")
        assert _kb_bytes(resumed.kb, tmp_path / "resumed") == expected
        loaded, _, _ = CheckpointStore(ckpt).load_snapshot()
        assert _kb_bytes(loaded, tmp_path / "loaded") == expected
