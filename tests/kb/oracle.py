"""Per-pair counts re-derived from record history, for the store's tests.

The store keeps ``count`` and ``core_count`` on each pair's state and
updates them on every write.  This oracle ignores both and recomputes a
concept's :class:`~repro.kb.store.ConceptState` columns from each alive
pair's record ids, the record activity bytes and a rid-indexed iterations
column, with one ``bincount`` gather per column.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.kb import IsAPair, KnowledgeBase


def gathered_columns(kb: KnowledgeBase, concept: str) -> dict[str, np.ndarray]:
    """``alive``, ``count``, ``first_iteration`` and ``core_count`` by id."""
    ids = kb.instance_id_map(concept)
    names = sorted(kb.instance_view(concept))
    record_ids = [kb._pairs[IsAPair(concept, name)].record_ids for name in names]
    sizes = list(map(len, record_ids))
    rids = np.fromiter(chain.from_iterable(record_ids), np.int64, sum(sizes))
    iterations = np.fromiter(
        (r.iteration for r in kb.records(include_inactive=True)),
        np.int64, kb.num_records,
    )
    active = np.frombuffer(kb.record_active_flags(), dtype=bool)
    owner = np.repeat(np.arange(len(names)), sizes)
    order = np.fromiter(map(ids.__getitem__, names), np.int64, len(names))
    columns = {
        "alive": np.zeros(len(ids), dtype=bool),
        "count": np.zeros(len(ids), dtype=np.int64),
        "first_iteration": np.zeros(len(ids), dtype=np.int64),
        "core_count": np.zeros(len(ids), dtype=np.int64),
    }
    columns["alive"][order] = True
    columns["count"][order] = np.bincount(
        owner, weights=active[rids], minlength=len(names)
    )
    columns["first_iteration"][order] = iterations[
        [history[0] for history in record_ids]
    ]
    columns["core_count"][order] = np.bincount(
        owner, weights=active[rids] & (iterations[rids] == 1),
        minlength=len(names),
    )
    return columns
