"""Tests for the redo journal and journaled cleaning operations."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.errors import ServiceError
from repro.kb import IsAPair, KnowledgeBase, RollbackEngine
from repro.service import CheckpointStore, IngestPolicy, Journal, replay_clean_ops
from repro.service.journal import JOURNAL_VERSION

from .conftest import make_pipeline, truncate_last_entry


def _entry(seq: int, **extra) -> dict:
    return {"seq": seq, "type": "batch", **extra}


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1, payload="a"))
        journal.append(_entry(2, payload="b"))
        entries = list(journal.entries())
        assert [e["seq"] for e in entries] == [1, 2]
        assert entries[0]["payload"] == "a"

    def test_missing_file_is_empty(self, tmp_path):
        journal = Journal(tmp_path / "absent.jsonl")
        assert list(journal.entries()) == []

    def test_entry_without_seq_rejected(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(ServiceError):
            journal.append({"type": "batch"})

    def test_seq_guard_skips_covered_entries(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        for seq in (1, 2, 3):
            journal.append(_entry(seq))
        assert [e["seq"] for e in journal.entries(after_seq=2)] == [3]

    def test_torn_tail_dropped_silently(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1))
        journal.append(_entry(2))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "type": "bat')  # crash mid-append
        assert [e["seq"] for e in journal.entries()] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1))
        journal.append(_entry(2))
        lines = journal.path.read_text().splitlines()
        lines[0] = "{broken"
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError):
            list(journal.entries())

    def test_reset_drops_everything(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1))
        journal.reset()
        assert list(journal.entries()) == []

    def test_truncate_last_entry(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1))
        journal.append(_entry(2))
        assert truncate_last_entry(journal.path)
        assert [e["seq"] for e in journal.entries()] == [1]
        assert truncate_last_entry(journal.path)
        assert not truncate_last_entry(journal.path)

    def test_entries_are_compact_json_lines(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1, payload=[1, 2]))
        line = journal.path.read_text().splitlines()[0]
        assert json.loads(line) == {"seq": 1, "type": "batch",
                                    "payload": [1, 2],
                                    "version": JOURNAL_VERSION}

    @pytest.mark.parametrize("line_no", [1, 2], ids=["first", "last"])
    @pytest.mark.parametrize(
        "version", [JOURNAL_VERSION + 1, None], ids=["other", "missing"]
    )
    def test_other_schema_version_names_file_line_and_versions(
        self, tmp_path, line_no, version
    ):
        # Line 2 is the last line: a well-formed entry with the wrong
        # version is not a torn tail, so it must fail too.
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1))
        journal.append(_entry(2))
        lines = journal.path.read_text().splitlines()
        entry = json.loads(lines[line_no - 1])
        if version is None:
            del entry["version"]
        else:
            entry["version"] = version
        lines[line_no - 1] = json.dumps(entry)
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError) as info:
            list(journal.entries(after_seq=2))
        message = str(info.value)
        assert f"{journal.path}:{line_no}" in message
        assert f"version {version!r}" in message
        assert f"reads version {JOURNAL_VERSION}" in message

    @pytest.mark.parametrize("line_no", [1, 2], ids=["first", "last"])
    @pytest.mark.parametrize(
        "seq", ["2", 2.0, None, True, "absent"],
        ids=["string", "float", "null", "bool", "absent"],
    )
    def test_non_integer_seq_names_file_and_line(self, tmp_path, line_no,
                                                 seq):
        # A line that parses is not a torn tail, even the last one.
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1))
        journal.append(_entry(2))
        lines = journal.path.read_text().splitlines()
        entry = json.loads(lines[line_no - 1])
        if seq == "absent":
            del entry["seq"]
        else:
            entry["seq"] = seq
        lines[line_no - 1] = json.dumps(entry)
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="integer seq") as info:
            list(journal.entries())
        assert f"{journal.path}:{line_no}" in str(info.value)

    def test_last_line_that_is_not_an_object_raises(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_entry(1))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("[2, 3]\n")
        with pytest.raises(ServiceError) as info:
            list(journal.entries())
        assert f"{journal.path}:2" in str(info.value)


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_extraction(0, "animal", ("dog", "chicken"), iteration=1)
    kb.add_extraction(1, "food", ("pork", "beef"), iteration=1)
    chicken = IsAPair("animal", "chicken")
    kb.add_extraction(
        2, "animal", ("pork", "beef"), triggers=(chicken,), iteration=2
    )
    return kb


#: Journaled ``clean_ops`` values no cleaning pass writes, by test id.
MALFORMED_OPS = {
    "not-a-list": 7,
    "dict": {"pair": ["animal", "chicken"]},
    "int-op": [7],
    "empty-op": [[]],
    "short-pair": [["pair", "animal"]],
    "long-pair": [["pair", "animal", "chicken", "dog"]],
    "int-names": [["pair", 1, 2]],
    "int-rids": [["records", 1]],
    "string-rids": [["records", "1"]],
    "float-rid": [["records", [1.0]]],
    "bool-rid": [["records", [True]]],
    "negative-rid": [["records", [-1]]],
    "rid-past-the-end": [["records", [10**6]]],
    "long-records": [["records", [1], [2]]],
}


class TestJournalingRollbackEngine:
    """``RollbackEngine.ops`` journals the requests the engine ran."""

    def test_records_top_level_ops_only(self):
        kb = _kb()
        engine = RollbackEngine(kb)
        engine.rollback_pair(IsAPair("animal", "chicken"))
        # The pair rollback cascades into record rollbacks internally,
        # but only the top-level request is journaled.
        assert engine.ops == [["pair", "animal", "chicken"]]

    def test_records_record_rollbacks(self):
        kb = _kb()
        engine = RollbackEngine(kb)
        engine.rollback_records([1])
        assert engine.ops == [["records", [1]]]

    def test_replay_reproduces_mutations(self):
        live = _kb()
        engine = RollbackEngine(live)
        engine.rollback_pair(IsAPair("animal", "chicken"))
        engine.rollback_records([1])

        replayed = _kb()
        replay_clean_ops(replayed, engine.ops)
        assert set(live.pairs()) == set(replayed.pairs())
        assert live.removed_pairs() == replayed.removed_pairs()
        assert live.version == replayed.version

    def test_replay_matches_plain_engine(self):
        reference = _kb()
        RollbackEngine(reference).rollback_pair(IsAPair("animal", "chicken"))
        replayed = _kb()
        replay_clean_ops(replayed, [["pair", "animal", "chicken"]])
        assert set(reference.pairs()) == set(replayed.pairs())
        assert reference.version == replayed.version

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError):
            replay_clean_ops(_kb(), [["warp", 1]])

    @pytest.mark.parametrize(
        "ops", MALFORMED_OPS.values(), ids=MALFORMED_OPS.keys()
    )
    def test_malformed_op_rejected(self, ops):
        with pytest.raises(ServiceError):
            replay_clean_ops(_kb(), ops)

    def test_pair_absent_from_the_kb_rejected(self):
        with pytest.raises(ServiceError, match="does not hold"):
            replay_clean_ops(_kb(), [["pair", "food", "dog"]])


@pytest.fixture(scope="module")
def cleaned_journal(service_corpus, tmp_path_factory):
    """A journal-only directory whose second entry replays a cleaning pass."""
    ckpt = tmp_path_factory.mktemp("cleaned") / "ckpt"
    session = make_pipeline().session(
        policy=IngestPolicy(), checkpoint_dir=ckpt, checkpoint_every=0
    )
    for batch in list(service_corpus.batches(300))[:2]:
        session.ingest(batch)
    entries = list(CheckpointStore(ckpt).journal.entries())
    assert "clean_ops" in entries[1]
    return ckpt


class TestReplayFaults:
    """A journaled cleaning pass that cannot replay fails naming the
    journal and the entry's seq."""

    @staticmethod
    def _resume_with_ops(cleaned_journal, tmp_path, ops):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(cleaned_journal, ckpt)
        path = CheckpointStore(ckpt).journal.path
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["clean_ops"] = ops
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError) as info:
            make_pipeline().session(
                policy=IngestPolicy(), checkpoint_dir=ckpt, resume=True
            )
        message = str(info.value)
        assert str(path) in message and "seq 2" in message
        return message

    @pytest.mark.parametrize(
        "name", ["not-a-list", "int-op", "int-names", "float-rid",
                 "rid-past-the-end"],
    )
    def test_malformed_op(self, cleaned_journal, tmp_path, name):
        self._resume_with_ops(cleaned_journal, tmp_path, MALFORMED_OPS[name])

    def test_pair_absent_from_the_kb(self, cleaned_journal, tmp_path):
        message = self._resume_with_ops(
            cleaned_journal, tmp_path, [["pair", "animal", "no such thing"]]
        )
        assert "does not hold" in message

    def test_non_integer_seq(self, cleaned_journal, tmp_path):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(cleaned_journal, ckpt)
        path = CheckpointStore(ckpt).journal.path
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["seq"] = "2"
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError) as info:
            make_pipeline().session(
                policy=IngestPolicy(), checkpoint_dir=ckpt, resume=True
            )
        assert f"{path}:2" in str(info.value)
