"""PRDual-Rank cleaning (Fang & Chang, WSDM 2011 — §5.3 baseline).

The original ranks patterns and tuples by propagating *precision* and
*recall* scores across their bipartite co-occurrence graph.  Following the
paper's adaptation ("changing tuples and patterns into isA pairs and
sentences respectively"), we propagate over the bipartite graph of
extraction records (sentences) and isA pairs:

* precision flows **down**: a sentence is as precise as the pairs it
  produced; a pair is as precise as the sentences producing it —
  anchored at evidenced core pairs (precision 1);
* recall flows **up**: seed pairs carry recall mass; a sentence
  accumulates the recall of its pairs; a pair accumulates sentence recall
  normalised by fan-out.

Pairs are ranked by the F1 of the two scores and everything below a
threshold learned from the seeds is removed — like RW-Rank, a global
ranking with a hard cut.
"""

from __future__ import annotations

import numpy as np

from ...corpus.corpus import Corpus
from ...kb.pair import IsAPair
from ...kb.store import KnowledgeBase
from ...labeling.evidence import EvidenceIndex
from ...labeling.rules import SeedLabelSet
from ..base import BaseCleaner, CleaningResult
from .rw_rank import learn_relative_threshold, remove_below

__all__ = ["PRDualRankCleaner"]


class PRDualRankCleaner(BaseCleaner):
    """Dual precision/recall propagation over the record–pair graph."""

    name = "prdualrank"

    def __init__(
        self,
        seeds: SeedLabelSet,
        evidence: EvidenceIndex,
        iterations: int = 8,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self._seeds = seeds
        self._evidence = evidence
        self._iterations = iterations

    def clean(self, kb: KnowledgeBase, corpus: Corpus) -> CleaningResult:
        before = kb.removed_pairs()
        f1_scores = self._dual_scores(kb)
        # Normalise per concept so one relative threshold applies everywhere.
        by_concept: dict[str, dict[str, float]] = {}
        for pair, value in f1_scores.items():
            by_concept.setdefault(pair.concept, {})[pair.instance] = value
        for concept, scores in by_concept.items():
            total = sum(scores.values())
            if total > 0:
                by_concept[concept] = {
                    name: value / total for name, value in scores.items()
                }
        remove_below(
            kb, by_concept, learn_relative_threshold(by_concept, self._seeds)
        )
        return self._result(self.name, before, kb)

    # ------------------------------------------------------------------
    # Score propagation
    # ------------------------------------------------------------------
    def _dual_scores(self, kb: KnowledgeBase) -> dict[IsAPair, float]:
        seeds = [
            IsAPair(concept, instance)
            for concept in kb.concepts()
            for instance in self._evidence.evidenced_correct(concept)
        ]
        # The record–pair graph does not change while scores propagate:
        # build it once as integer link arrays.  Every pair gets a slot —
        # alive pairs first, in kb.pairs() order, then linked or seed pairs
        # that are not alive (dead triggers, removed pairs), which only
        # ever score 0 or their seed value.  Triggers play the "pattern"
        # role: a sentence inherits quality from the knowledge that
        # resolved it as well as from what it produced.
        slot = {pair: index for index, pair in enumerate(kb.pairs())}
        alive = len(slot)
        # record → pair links, in kb.records() order and, per record, in
        # produced + triggers order.
        row_of: dict[int, int] = {}
        link_row, link_slot = [], []
        for record in kb.records():
            linked = record.produced + record.triggers
            if linked:
                row_of[record.rid] = row = len(row_of)
                link_row += [row] * len(linked)
                link_slot += [
                    slot.setdefault(pair, len(slot)) for pair in linked
                ]
        # pair → producing record links, in kb.pairs() order and, per pair,
        # in records_for_pair order, with that record's fan-out.
        producer_slot, producer_row, fan_outs = [], [], []
        for index, pair in enumerate(kb.pairs()):
            for record in kb.records_for_pair(pair):
                producer_slot.append(index)
                producer_row.append(row_of[record.rid])
                fan_outs.append(max(1, len(record.produced)))
        seed_slots = np.array(
            [slot.setdefault(pair, len(slot)) for pair in seeds], dtype=np.intp
        )
        slots, rows = len(slot), len(row_of)
        link_row, link_slot, producer_slot, producer_row, fan_outs = (
            np.array(values, dtype=np.intp)
            for values in (
                link_row, link_slot, producer_slot, producer_row, fan_outs
            )
        )
        links = np.bincount(link_row, minlength=rows)
        producers = np.maximum(np.bincount(producer_slot, minlength=slots), 1)
        precision = np.zeros(slots)
        precision[seed_slots] = 1.0
        recall = precision.copy()
        # bincount adds each row's weights in input order starting from
        # 0.0 — exactly the left-to-right order of a Python sum over the
        # links — so every score is bit-identical to the per-element form
        # (tests/cleaning/oracle.py).  reduceat, sparse matvecs and @ may
        # reorder the additions: do not swap them in.
        for _ in range(self._iterations):
            record_precision = np.bincount(
                link_row, weights=precision[link_slot], minlength=rows
            ) / links
            record_recall = np.bincount(
                link_row, weights=recall[link_slot], minlength=rows
            )
            precision = np.bincount(
                producer_slot, weights=record_precision[producer_row],
                minlength=slots,
            ) / producers
            recall = np.bincount(
                producer_slot, weights=record_recall[producer_row] / fan_outs,
                minlength=slots,
            )
            precision[seed_slots] = np.maximum(precision[seed_slots], 1.0)
            recall[seed_slots] = np.maximum(recall[seed_slots], 1.0)
        max_recall = float(recall.max(initial=0.0)) or 1.0
        scores: dict[IsAPair, float] = {}
        for pair, p, r in zip(
            kb.pairs(), precision[:alive].tolist(), recall[:alive].tolist()
        ):
            r = r / max_recall
            scores[pair] = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        return scores
