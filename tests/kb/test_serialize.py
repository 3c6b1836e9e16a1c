"""Tests for knowledge-base persistence."""

from __future__ import annotations

import json

import pytest

from repro.cleaning import DPCleaner
from repro.config import CleaningConfig
from repro.errors import KnowledgeBaseError
from repro.extraction import SemanticIterativeExtractor
from repro.kb import IsAPair, KnowledgeBase, RollbackEngine, load_kb, save_kb
from repro.kb.serialize import SCHEMA_VERSION
from repro.labeling import DPLabel


def _kb():
    kb = KnowledgeBase()
    kb.add_extraction(0, "animal", ("dog", "chicken"), iteration=1)
    kb.add_extraction(1, "food", ("pork", "beef"), iteration=1)
    chicken = IsAPair("animal", "chicken")
    kb.add_extraction(
        2, "animal", ("pork", "beef", "chicken"), triggers=(chicken,),
        iteration=2,
    )
    return kb


def _same_state(a: KnowledgeBase, b: KnowledgeBase) -> None:
    assert set(a.pairs()) == set(b.pairs())
    for pair in a.pairs():
        assert a.count(pair) == b.count(pair)
        assert a.first_iteration(pair) == b.first_iteration(pair)
    assert a.removed_pairs() == b.removed_pairs()
    a_records = {r.rid: r for r in a.records(include_inactive=True)}
    b_records = {r.rid: r for r in b.records(include_inactive=True)}
    assert set(a_records) == set(b_records)
    for rid, record in a_records.items():
        other = b_records[rid]
        assert record.active == other.active
        assert record.instances == other.instances
        assert record.triggers == other.triggers
        assert record.alive_triggers() == other.alive_triggers()


class TestRoundTrip:
    def test_plain_roundtrip(self, tmp_path):
        kb = _kb()
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        _same_state(kb, load_kb(path))

    def test_roundtrip_after_rollback(self, tmp_path):
        kb = _kb()
        record = next(r for r in kb.records() if r.iteration == 2)
        RollbackEngine(kb).rollback_records([record.rid])
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        _same_state(kb, loaded)
        assert not loaded.has_instance("animal", "pork")

    def test_roundtrip_after_force_removal(self, tmp_path):
        kb = _kb()
        RollbackEngine(kb).rollback_pair(IsAPair("animal", "chicken"))
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        _same_state(kb, loaded)
        assert not loaded.has_instance("animal", "chicken")
        assert loaded.has_instance("animal", "dog")

    def test_loaded_kb_supports_further_rollback(self, tmp_path):
        kb = _kb()
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        RollbackEngine(loaded).rollback_pair(IsAPair("animal", "chicken"))
        assert not loaded.has_instance("animal", "pork")

    def test_roundtrip_after_full_cleaning(self, tmp_path, toy_extraction,
                                           toy_corpus):
        kb = toy_extraction.kb
        # a light oracle-free cleaning pass to create mixed state
        def detect(current):
            labels = {}
            for concept in current.concepts():
                for instance in list(current.instances_of(concept))[:5]:
                    pair = IsAPair(concept, instance)
                    if current.count(pair) == 1:
                        labels.setdefault(concept, {})[instance] = (
                            DPLabel.ACCIDENTAL
                        )
            return labels

        DPCleaner(detect, CleaningConfig(max_cleaning_rounds=1)).clean(
            kb, toy_corpus.deduplicated()
        )
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        _same_state(kb, load_kb(path))


class TestValidation:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(KnowledgeBaseError):
            load_kb(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "other", "version": 1}) + "\n")
        with pytest.raises(KnowledgeBaseError):
            load_kb(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-kb", "version": 99}) + "\n"
        )
        with pytest.raises(KnowledgeBaseError):
            load_kb(path)

    def test_corrupt_record(self, tmp_path):
        kb = _kb()
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        content = path.read_text().splitlines()
        content[1] = "{broken"
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(KnowledgeBaseError):
            load_kb(path)


class TestSchemaVersion:
    def test_header_is_stamped(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb(_kb(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema_version"] == SCHEMA_VERSION

    def test_stamped_file_round_trips(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        kb = _kb()
        save_kb(kb, path)
        _same_state(kb, load_kb(path))

    def test_schema_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb(_kb(), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = SCHEMA_VERSION + 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeBaseError, match="schema"):
            load_kb(path)

    def test_missing_schema_version_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb(_kb(), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["schema_version"]
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeBaseError, match="schema"):
            load_kb(path)


class TestTruncationDetection:
    def test_truncated_file_fails_loudly(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb(_kb(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(KnowledgeBaseError, match="truncated"):
            load_kb(path)

    def test_padded_file_fails_loudly(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb(_kb(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(KnowledgeBaseError):
            load_kb(path)


class TestPinnedBytes:
    """``save_kb`` output is a compatibility surface: pin it literally."""

    EXPECTED = "\n".join([
        '{"format": "repro-kb", "version": 1, "schema_version": 1, '
        '"records": 5, "pairs": 5, "removed_pairs": [["animal", "beef"], '
        '["animal", "chicken"], ["food", "rice"]]}',
        '{"rid": 0, "sid": 0, "concept": "animal", "instances": ["dog", '
        '"chicken", "duck"], "triggers": [], "iteration": 1, "active": true, '
        '"dead_triggers": []}',
        '{"rid": 1, "sid": 1, "concept": "food", "instances": ["pork", '
        '"beef"], "triggers": [], "iteration": 1, "active": true, '
        '"dead_triggers": []}',
        '{"rid": 2, "sid": 2, "concept": "animal", "instances": ["pork", '
        '"chicken", "duck"], "triggers": [["animal", "chicken"], ["animal", '
        '"duck"]], "iteration": 2, "active": true, "dead_triggers": '
        '[["animal", "chicken"]]}',
        '{"rid": 3, "sid": 3, "concept": "animal", "instances": ["beef", '
        '"chicken"], "triggers": [["animal", "chicken"]], "iteration": 2, '
        '"active": false, "dead_triggers": [["animal", "chicken"]]}',
        '{"rid": 4, "sid": 4, "concept": "food", "instances": ["rice", '
        '"pork"], "triggers": [], "iteration": 1, "active": true, '
        '"dead_triggers": []}',
    ]) + "\n"

    @staticmethod
    def _mixed_kb() -> KnowledgeBase:
        """Inactive records, a partly dead trigger list, a forced removal."""
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "chicken", "duck"), iteration=1)
        kb.add_extraction(1, "food", ("pork", "beef"), iteration=1)
        chicken = IsAPair("animal", "chicken")
        duck = IsAPair("animal", "duck")
        kb.add_extraction(2, "animal", ("pork", "chicken", "duck"),
                          triggers=(chicken, duck), iteration=2)
        kb.add_extraction(3, "animal", ("beef", "chicken"),
                          triggers=(chicken,), iteration=2)
        kb.add_extraction(4, "food", ("rice", "pork"), iteration=1)
        RollbackEngine(kb).rollback_pair(chicken)
        kb.remove_pair(IsAPair("food", "rice"))
        return kb

    def test_bytes_match_the_pinned_text(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb(self._mixed_kb(), path)
        assert path.read_text() == self.EXPECTED

    def test_pinned_text_round_trips(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(self.EXPECTED)
        again = tmp_path / "again.jsonl"
        save_kb(load_kb(path), again)
        assert again.read_text() == self.EXPECTED
