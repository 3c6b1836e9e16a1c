"""The record column codec (``record_columns`` / ``replay_columns``).

A checkpoint stores each snapshot generation's new records as int64
columns over a string table that grows by the names the generation adds.
Replaying every generation's columns in order and applying the mutable
state must rebuild the live knowledge base exactly.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KnowledgeBaseError
from repro.kb import IsAPair, KnowledgeBase, RollbackEngine, save_kb
from repro.kb.serialize import (
    RECORD_COLUMNS,
    apply_state,
    kb_state,
    record_columns,
    replay_columns,
)

from .state import assert_same_state


def _kb_bytes(kb: KnowledgeBase, path: Path) -> bytes:
    save_kb(kb, path)
    return path.read_bytes()


def _through_disk(added, columns):
    """What a reader gets back: the table through JSON, the columns
    through their little-endian bytes."""
    return json.loads(json.dumps(added)), {
        name: np.frombuffer(array.astype("<i8").tobytes(), "<i8")
        for name, array in columns.items()
    }


def _loaded(generations, state) -> KnowledgeBase:
    kb = KnowledgeBase()
    table: list[str] = []
    for added, columns in generations:
        table.extend(added)
        replay_columns(kb, table, columns)
    apply_state(kb, json.loads(json.dumps(state)), "state")
    return kb


class TestRecordColumns:
    def test_table_grows_by_the_names_each_generation_adds(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "cat"))
        strings: dict[str, int] = {}
        added, columns = record_columns(list(kb.records()), strings)
        assert added == ["animal", "dog", "cat"]
        dog = IsAPair("animal", "dog")
        kb.add_extraction(1, "animal", ("dog", "emu"), (dog, dog), 2)
        added, columns = record_columns([kb.record(1)], strings)
        assert added == ["emu"]
        assert strings == {"animal": 0, "dog": 1, "cat": 2, "emu": 3}
        assert sorted(columns) == sorted(RECORD_COLUMNS)
        assert columns["instances"].tolist() == [1, 3]
        # A trigger listed twice is stored twice, as its instance.
        assert columns["triggers"].tolist() == [1, 1]
        assert columns["trigger_offsets"].tolist() == [0, 2]
        assert all(a.dtype == np.int64 for a in columns.values())

    def test_no_records_give_empty_columns(self):
        added, columns = record_columns([], {})
        assert added == []
        assert columns["instance_offsets"].tolist() == [0]
        replay_columns(KnowledgeBase(), [], columns)

    def test_a_refused_record_names_its_rid(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog",))
        kb.add_extraction(
            1, "animal", ("cat",), (IsAPair("animal", "dog"),), 2
        )
        strings: dict[str, int] = {}
        _, columns = record_columns(list(kb.records()), strings)
        # Without record 0, record 1's trigger is not in the KB.
        rest = {
            "sid": columns["sid"][1:],
            "concept": columns["concept"][1:],
            "iteration": columns["iteration"][1:],
            "instance_offsets": columns["instance_offsets"][1:] - 1,
            "instances": columns["instances"][1:],
            "trigger_offsets": columns["trigger_offsets"][1:],
            "triggers": columns["triggers"],
        }
        with pytest.raises(KnowledgeBaseError, match="record 0"):
            replay_columns(KnowledgeBase(), list(strings), rest)

    def test_an_empty_name_is_refused(self):
        # IsAPair refuses an empty instance; building pairs in bulk
        # (pairs_under) must not skip that check.
        columns = {
            "sid": np.array([0], np.int64),
            "concept": np.array([0], np.int64),
            "iteration": np.array([1], np.int64),
            "instance_offsets": np.array([0, 1], np.int64),
            "instances": np.array([1], np.int64),
            "trigger_offsets": np.array([0, 0], np.int64),
            "triggers": np.array([], np.int64),
        }
        with pytest.raises(KnowledgeBaseError, match="non-empty"):
            replay_columns(KnowledgeBase(), ["animal", ""], columns)


#: Few names, so that triggers, re-extractions and shared strings across
#: generations are common; unicode, quotes, escapes and a newline, so the
#: table's JSON round trip is exercised.  A concept may share its name
#: with an instance.
NAMES = ("dog", "chat noir", "犬", "🐕", 'say "hi"', "back\\slash", "a\nb",
         "animal")
CONCEPTS = ("animal", "Tier", "動物")


@st.composite
def _programs(draw):
    add = st.tuples(
        st.just("add"), st.sampled_from(CONCEPTS),
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True),
        # Trigger picks among the concept's pairs; a repeated pick lists
        # one trigger twice.  The flag adds a trigger's instance to the
        # instances too.
        st.lists(st.integers(0, 3), max_size=2), st.booleans(),
    )
    return draw(st.lists(
        st.one_of(
            add, add, add,
            st.tuples(st.just("rollback_pair"), st.integers(0, 50)),
            st.tuples(st.just("rollback_record"), st.integers(0, 50)),
            st.tuples(st.just("remove_pair"), st.integers(0, 50)),
            st.tuples(st.just("generation")),
        ),
        max_size=40,
    ))


class TestGenerations:
    @settings(max_examples=150, deadline=None)
    @given(program=_programs())
    def test_every_generation_loads_back_to_the_live_state(self, program):
        kb = KnowledgeBase()
        strings: dict[str, int] = {}
        generations = []
        written = 0
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for op in (*program, ("generation",)):
                kind = op[0]
                pairs = sorted(kb.pairs())
                if kind == "add":
                    _, concept, instances, picks, echo = op
                    known = [p for p in pairs if p.concept == concept]
                    triggers = tuple(known[i % len(known)] for i in picks
                                     if known)
                    echoed = triggers[0].instance if triggers else None
                    if echo and echoed not in (None, *instances):
                        instances = [*instances, echoed]
                    kb.add_extraction(
                        kb.num_records, concept, instances, triggers,
                        iteration=2 if triggers else 1,
                    )
                elif kind == "rollback_pair" and pairs:
                    RollbackEngine(kb).rollback_pair(pairs[op[1] % len(pairs)])
                elif kind == "rollback_record" and kb.num_records:
                    rid = op[1] % kb.num_records
                    if kb.is_active(rid):
                        RollbackEngine(kb).rollback_records([rid])
                elif kind == "remove_pair" and pairs:
                    # A later add of the same pair re-extracts it.
                    kb.remove_pair(pairs[op[1] % len(pairs)])
                elif kind == "generation":
                    known = set(strings)
                    added, columns = record_columns(
                        [kb.record(rid)
                         for rid in range(written, kb.num_records)],
                        strings,
                    )
                    assert not known & set(added)
                    assert len(set(added)) == len(added)
                    written = kb.num_records
                    generations.append(_through_disk(added, columns))
                    loaded = _loaded(generations, kb_state(kb))
                    assert_same_state(loaded, kb)
                    assert _kb_bytes(loaded, tmp / "loaded") == _kb_bytes(
                        kb, tmp / "live"
                    )
