"""The full observable state of two knowledge bases, compared."""

from __future__ import annotations

import numpy as np

from repro.kb import KnowledgeBase
from repro.kb.record import ExtractionRecord


def assert_same_state(a: KnowledgeBase, b: KnowledgeBase) -> None:
    """Every pair, record, trigger and removal reads the same in both."""
    assert list(a.pairs()) == list(b.pairs())
    for pair in a.pairs():
        assert a.count(pair) == b.count(pair)
        assert a.first_iteration(pair) == b.first_iteration(pair)
        assert a.core_count(pair) == b.core_count(pair)
        assert [r.rid for r in a.records_for_pair(pair)] == [
            r.rid for r in b.records_for_pair(pair)
        ]
    for concept in a.concepts():
        assert a.core_instances(concept) == b.core_instances(concept)
        assert np.array_equal(
            a.concept_state(concept).core_count,
            b.concept_state(concept).core_count,
        )
    assert dict(a.trigger_index()) == dict(b.trigger_index())
    assert a.removed_pairs() == b.removed_pairs()
    a_records = {r.rid: r for r in a.records(include_inactive=True)}
    b_records = {r.rid: r for r in b.records(include_inactive=True)}
    assert set(a_records) == set(b_records)
    for rid, record in a_records.items():
        other = b_records[rid]
        assert a.is_active(rid) == b.is_active(rid)
        assert record.instances == other.instances
        assert record.triggers == other.triggers
    assert a.dead_triggers() == b.dead_triggers()


def records_for_concept(
    kb: KnowledgeBase, concept: str
) -> list[ExtractionRecord]:
    """Active records extracted under one concept, in rid order."""
    return [record for record in kb.records() if record.concept == concept]
