"""Per-element oracle for PRDual-Rank's vectorised score propagation.

:func:`loop_dual_scores` is ``PRDualRankCleaner._dual_scores`` as it was
written before propagation became ``np.bincount`` scatters: one Python
sum per record and per pair on every iteration.  Production must match
it bit for bit, which holds because ``bincount`` adds each row's weights
in input order starting from 0.0.  The sums are spelled as explicit
left-to-right folds: that is what ``sum`` over floats did up to
CPython 3.11, and CPython 3.12 made ``sum`` compensated.
"""

from __future__ import annotations

from repro.cleaning import PRDualRankCleaner
from repro.kb import IsAPair, KnowledgeBase

__all__ = ["loop_dual_scores"]


def _sum(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


def loop_dual_scores(
    cleaner: PRDualRankCleaner, kb: KnowledgeBase
) -> dict[IsAPair, float]:
    """F1 of the dual precision/recall scores, one Python sum at a time."""
    seeds: dict[IsAPair, float] = {}
    for concept in kb.concepts():
        for instance in cleaner._evidence.evidenced_correct(concept):
            seeds[IsAPair(concept, instance)] = 1.0
    precision = dict(seeds)
    recall = dict(seeds)
    records = [
        (record.rid, linked)
        for record in kb.records()
        if (linked := record.produced + record.triggers)
    ]
    producers = [
        (pair, [(r.rid, max(1, len(r.produced))) for r in found])
        for pair in kb.pairs()
        if (found := kb.records_for_pair(pair))
    ]
    for _ in range(cleaner._iterations):
        record_precision: dict[int, float] = {}
        record_recall: dict[int, float] = {}
        for rid, linked in records:
            record_precision[rid] = _sum(
                precision.get(pair, 0.0) for pair in linked
            ) / len(linked)
            record_recall[rid] = _sum(
                recall.get(pair, 0.0) for pair in linked
            )
        new_precision: dict[IsAPair, float] = {}
        new_recall: dict[IsAPair, float] = {}
        for pair, found in producers:
            new_precision[pair] = _sum(
                record_precision.get(rid, 0.0) for rid, _ in found
            ) / len(found)
            new_recall[pair] = _sum(
                record_recall.get(rid, 0.0) / fan_out
                for rid, fan_out in found
            )
        for pair, value in seeds.items():
            new_precision[pair] = max(new_precision.get(pair, 0.0), value)
            new_recall[pair] = max(new_recall.get(pair, 0.0), value)
        precision, recall = new_precision, new_recall
    max_recall = max(recall.values(), default=1.0) or 1.0
    scores: dict[IsAPair, float] = {}
    for pair in kb.pairs():
        p = precision.get(pair, 0.0)
        r = recall.get(pair, 0.0) / max_recall
        scores[pair] = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return scores
