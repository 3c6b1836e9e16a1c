"""The store's per-pair counts and trigger index against the oracle.

Random programs of extractions, rollbacks, force-removals,
re-extractions, copies and save/load round trips; after every step each
``core_count`` and every :meth:`KnowledgeBase.concept_state` column must
equal the gather in :mod:`tests.kb.oracle`, every trigger-index rid list
must ascend, and a rollback kills exactly the pairs it leaves with no
active record.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kb import IsAPair, KnowledgeBase, load_kb, save_kb

from .oracle import gathered_columns
from .state import assert_same_state

_CONCEPTS = ("animal", "city")


def _programs():
    index = st.integers(0, 50)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("add"), st.integers(0, 1),
                st.lists(st.integers(0, 3), min_size=1, max_size=3,
                         unique=True),
                st.lists(index, max_size=3), st.integers(1, 3),
            ),
            st.tuples(st.just("deactivate"), index),
            st.tuples(st.just("remove_pair"), index),
            st.tuples(st.just("re_extract"), index, st.integers(1, 3)),
            st.tuples(st.just("copy")),
            st.tuples(st.just("save_load")),
        ),
        min_size=4,
        max_size=40,
    )


def _step(kb: KnowledgeBase, op: tuple, tmp: Path) -> KnowledgeBase:
    kind = op[0]
    pairs = sorted(kb.pairs())
    if kind == "add":
        _, c, instances, picks, iteration = op
        concept = _CONCEPTS[c]
        known = [p for p in pairs if p.concept == concept]
        # Repeated picks list one trigger twice.
        triggers = [known[i % len(known)] for i in picks] if known else []
        kb.add_extraction(
            kb.num_records, concept, tuple(f"e{i}" for i in instances),
            triggers=triggers, iteration=iteration,
        )
    elif kind == "deactivate":
        active = [r.rid for r in kb.records()]
        if active:
            rid = active[op[1] % len(active)]
            # A pair dies exactly when no other active record backs it.
            backed = {
                pair: any(r.rid != rid for r in kb.records_for_pair(pair))
                for pair in kb.record(rid).produced
                if pair in kb
            }
            kb.deactivate_record(rid)
            assert {pair: pair in kb for pair in backed} == backed
    elif kind == "remove_pair" and pairs:
        kb.remove_pair(pairs[op[1] % len(pairs)])
    elif kind == "re_extract":
        removed = sorted(kb.removed_pairs())
        if removed:
            pair = removed[op[1] % len(removed)]
            kb.add_extraction(
                kb.num_records, pair.concept, (pair.instance, "fresh"),
                iteration=op[2],
            )
    elif kind == "copy":
        clone = kb.copy()
        assert_same_state(kb, clone)
        return clone
    elif kind == "save_load":
        path = tmp / "kb.jsonl"
        save_kb(kb, path)
        loaded = load_kb(path)
        assert_same_state(kb, loaded)
        return loaded
    return kb


def _check(kb: KnowledgeBase) -> None:
    for concept in _CONCEPTS:
        state = kb.concept_state(concept)
        for name, column in gathered_columns(kb, concept).items():
            assert np.array_equal(getattr(state, name), column), name
        for instance in state.names:
            pair = IsAPair(concept, instance)
            assert kb.core_count(pair) == state.core_count[
                kb.instance_id_map(concept)[instance]
            ]
    for rids in kb.trigger_index().values():
        assert all(a < b for a, b in zip(rids, rids[1:]))


class TestCountsMatchTheGather:
    @settings(max_examples=150, deadline=None)
    @given(program=_programs())
    # A re-extracted pair outlives the rollback of its old producer.
    @example(program=[
        ("add", 1, [0, 1], [], 1), ("remove_pair", 1), ("re_extract", 0, 1),
        ("deactivate", 0), ("save_load",),
    ])
    # A loaded restart counts only the active core records past its rid.
    @example(program=[
        ("add", 0, [0], [], 1), ("remove_pair", 0), ("re_extract", 0, 1),
        ("add", 0, [0], [], 1), ("deactivate", 2), ("save_load",),
    ])
    # A record listing one trigger twice is indexed under it once.
    @example(program=[
        ("add", 0, [0], [], 1), ("add", 0, [1, 2], [0, 0], 2), ("copy",),
    ])
    def test_every_step(self, program):
        kb = KnowledgeBase()
        with tempfile.TemporaryDirectory() as tmp:
            for op in program:
                kb = _step(kb, op, Path(tmp))
                _check(kb)
