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

from ...corpus.corpus import Corpus
from ...kb.pair import IsAPair
from ...kb.store import KnowledgeBase
from ...labeling.evidence import EvidenceIndex
from ...labeling.rules import SeedLabelSet
from ..base import BaseCleaner, CleaningResult
from .rw_rank import learn_relative_threshold

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
        multiplier = learn_relative_threshold(by_concept, self._seeds)
        for concept, scores in by_concept.items():
            n = len(scores)
            if n < 3:
                continue
            threshold = multiplier / n
            for instance, score in scores.items():
                if score < threshold:
                    pair = IsAPair(concept, instance)
                    if pair in kb:
                        kb.remove_pair(pair)
        return self._result(
            self.name, before, kb, details={"multiplier": multiplier}
        )

    # ------------------------------------------------------------------
    # Score propagation
    # ------------------------------------------------------------------
    def _dual_scores(self, kb: KnowledgeBase) -> dict[IsAPair, float]:
        seeds: dict[IsAPair, float] = {}
        for concept in kb.concepts():
            for instance in self._evidence.evidenced_correct(concept):
                seeds[IsAPair(concept, instance)] = 1.0
        precision = dict(seeds)
        recall = dict(seeds)
        # The record–pair graph does not change while scores propagate:
        # build it once, in kb.records()/kb.pairs() order, so each sum adds
        # the same terms in the same order on every iteration.  Triggers
        # play the "pattern" role: a sentence inherits quality from the
        # knowledge that resolved it as well as from what it produced.
        records = [
            (record.rid, linked)
            for record in kb.records()
            if (linked := record.produced + record.triggers)
        ]
        # pair → [(producing rid, that record's fan-out)]
        producers = [
            (pair, [(r.rid, max(1, len(r.produced))) for r in found])
            for pair in kb.pairs()
            if (found := kb.records_for_pair(pair))
        ]
        for _ in range(self._iterations):
            record_precision: dict[int, float] = {}
            record_recall: dict[int, float] = {}
            for rid, linked in records:
                record_precision[rid] = sum(
                    precision.get(pair, 0.0) for pair in linked
                ) / len(linked)
                record_recall[rid] = sum(
                    recall.get(pair, 0.0) for pair in linked
                )
            new_precision: dict[IsAPair, float] = {}
            new_recall: dict[IsAPair, float] = {}
            for pair, found in producers:
                new_precision[pair] = sum(
                    record_precision.get(rid, 0.0) for rid, _ in found
                ) / len(found)
                new_recall[pair] = sum(
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
