"""Tests for knowledge-base persistence."""

from __future__ import annotations

import json

import pytest

from repro.cleaning import DPCleaner
from repro.errors import KnowledgeBaseError
from repro.kb import IsAPair, KnowledgeBase, RollbackEngine, load_kb, save_kb
from repro.kb.serialize import SCHEMA_VERSION
from repro.labeling import DPLabel

from ..corpus.helpers import deduplicated
from .state import assert_same_state


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


class TestRoundTrip:
    def test_plain_roundtrip(self, tmp_path):
        kb = _kb()
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        assert_same_state(kb, load_kb(path))

    def test_roundtrip_after_rollback(self, tmp_path):
        kb = _kb()
        record = next(r for r in kb.records() if r.iteration == 2)
        RollbackEngine(kb).rollback_records([record.rid])
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        assert_same_state(kb, loaded)
        assert not loaded.has_instance("animal", "pork")

    def test_roundtrip_after_force_removal(self, tmp_path):
        kb = _kb()
        RollbackEngine(kb).rollback_pair(IsAPair("animal", "chicken"))
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        assert_same_state(kb, loaded)
        assert not loaded.has_instance("animal", "chicken")
        assert loaded.has_instance("animal", "dog")

    def test_roundtrip_after_removal_then_reextraction(self, tmp_path):
        kb = KnowledgeBase()
        kb.add_extraction(0, "city", ("paris", "rome"), iteration=1)
        kb.remove_pair(IsAPair("city", "paris"))
        kb.add_extraction(1, "city", ("paris",), iteration=2)
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        assert_same_state(kb, loaded)
        paris = IsAPair("city", "paris")
        assert loaded.count(paris) == 1
        assert loaded.core_count(paris) == 0
        assert loaded.first_iteration(paris) == 2
        assert "paris" not in loaded.core_instances("city")

    def test_roundtrip_after_death_then_reextraction(self, tmp_path):
        kb = KnowledgeBase()
        kb.add_extraction(0, "city", ("paris", "rome"), iteration=1)
        kb.add_extraction(1, "city", ("paris", "oslo"), iteration=1)
        RollbackEngine(kb).rollback_records([0, 1])
        kb.add_extraction(2, "city", ("paris", "lima"), iteration=2)
        # A pre-restart record rolled back after the restart still
        # counts against the re-created pair, as it does live.
        kb.add_extraction(3, "city", ("bern", "rome"), iteration=1)
        kb.remove_pair(IsAPair("city", "rome"))
        kb.add_extraction(4, "city", ("rome",), iteration=3)
        kb.add_extraction(5, "city", ("rome", "kiev"), iteration=3)
        RollbackEngine(kb).rollback_records([3])
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        assert_same_state(kb, loaded)
        assert loaded.first_iteration(IsAPair("city", "paris")) == 2
        again = tmp_path / "again.jsonl"
        save_kb(loaded, again)
        assert again.read_bytes() == path.read_bytes()

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

        DPCleaner(detect).clean(kb, deduplicated(toy_corpus), max_rounds=1)
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        assert_same_state(kb, load_kb(path))


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

    def test_version_1_file_is_refused_by_name(self, tmp_path):
        # Version 1 had no re-extracted pairs: such pairs would load with
        # the history of every record that ever produced them.
        path = tmp_path / "old.jsonl"
        save_kb(_kb(), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 1
        del header["restarts"]
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeBaseError, match="version 1") as info:
            load_kb(path)
        assert str(path) in str(info.value)

    def test_corrupt_record(self, tmp_path):
        kb = _kb()
        path = tmp_path / "kb.jsonl"
        save_kb(kb, path)
        content = path.read_text().splitlines()
        content[1] = "{broken"
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(KnowledgeBaseError):
            load_kb(path)



class TestMalformedRows:
    """A row with a field of the wrong type fails naming path:line."""

    @pytest.mark.parametrize(
        ("line", "field", "value"),
        [
            # Each of these four loaded silently before rows were
            # type-checked: the sid as a string (Eq. 21's sid lookup then
            # never finds it), a fractional iteration, an "active" flag
            # read by truthiness, a dead trigger the record never had.
            (2, "sid", "1"),
            (2, "iteration", 1.5),
            (2, "active", "no"),
            (4, "dead_triggers", [["animal", "dog"]]),
            (2, "iteration", True),
            (2, "iteration", 0),
            (2, "concept", 5),
            (2, "instances", "dog"),
            (2, "instances", ["dog", 5]),
            (4, "triggers", [["animal"]]),
            (4, "triggers", [["animal", 5]]),
            (2, "active", 0),
            (2, "dead_triggers", "chicken"),
        ],
    )
    def test_is_rejected_with_its_location(self, tmp_path, line, field,
                                           value):
        path = tmp_path / "kb.jsonl"
        save_kb(_kb(), path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[line - 1])
        row[field] = value
        lines[line - 1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeBaseError, match=field) as info:
            load_kb(path)
        assert f"{path}:{line}" in str(info.value)


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
        assert_same_state(kb, load_kb(path))

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
        '{"format": "repro-kb", "version": 2, "schema_version": 1, '
        '"records": 6, "pairs": 6, "removed_pairs": [["animal", "beef"], '
        '["animal", "chicken"]], "restarts": [["food", "rice", 5, 1]]}',
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
        '{"rid": 5, "sid": 5, "concept": "food", "instances": ["rice"], '
        '"triggers": [], "iteration": 2, "active": true, '
        '"dead_triggers": []}',
    ]) + "\n"

    @staticmethod
    def _mixed_kb() -> KnowledgeBase:
        """Inactive records, a partly dead trigger list, a forced removal
        and a re-extraction."""
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
        kb.add_extraction(5, "food", ("rice",), iteration=2)
        return kb

    def test_bytes_match_the_pinned_text(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_kb(self._mixed_kb(), path)
        assert path.read_text() == self.EXPECTED

    def test_tampered_restart_count_is_refused_by_name(self, tmp_path):
        # The stored count of a re-extracted pair is checked against the
        # active records it restarted at, not taken on trust.
        path = tmp_path / "kb.jsonl"
        path.write_text(self.EXPECTED.replace(
            '"restarts": [["food", "rice", 5, 1]]',
            '"restarts": [["food", "rice", 5, 2]]',
        ))
        with pytest.raises(KnowledgeBaseError, match="count 2") as info:
            load_kb(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("stored, malformed", [
        ('"restarts": [["food", "rice", 5, 1]]',
         '"restarts": [["food", "rice", 5]]'),
        ('"removed_pairs": [["animal", "beef"], ',
         '"removed_pairs": [["animal"], '),
    ], ids=["restarts", "removed_pairs"])
    def test_malformed_header_entry_is_refused_by_name(
        self, tmp_path, stored, malformed
    ):
        # A short entry used to escape as a bare ValueError from unpacking.
        path = tmp_path / "kb.jsonl"
        assert stored in self.EXPECTED
        path.write_text(self.EXPECTED.replace(stored, malformed))
        with pytest.raises(KnowledgeBaseError) as info:
            load_kb(path)
        assert str(path) in str(info.value)

    def test_pinned_text_round_trips(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(self.EXPECTED)
        again = tmp_path / "again.jsonl"
        save_kb(load_kb(path), again)
        assert again.read_text() == self.EXPECTED
