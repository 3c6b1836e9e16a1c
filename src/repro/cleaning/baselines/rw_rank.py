"""Random-Walk-Rank cleaning (RW-Rank, §5.3).

Per concept, instances are ranked by their random-walk score and everything
below a learned threshold is removed.  The threshold is a multiple of the
uniform score ``1/n`` (so it transfers across concepts of different sizes)
and is learned from the automatically labelled seeds: the multiplier that
best separates error seeds from correct seeds by F1.

This is the paper's demonstration that even a good ranking model makes a
blunt cleaner: to reach useful error recall the threshold must also cut
away a mass of correct tail instances.
"""

from __future__ import annotations

import numpy as np

from ...corpus.corpus import Corpus
from ...kb.pair import IsAPair
from ...kb.store import KnowledgeBase
from ...labeling.labels import DPLabel
from ...labeling.rules import SeedLabelSet
from ...ranking.random_walk import RandomWalkRanker
from ..base import BaseCleaner, CleaningResult

__all__ = ["RWRankCleaner", "learn_relative_threshold", "remove_below"]

_CANDIDATE_MULTIPLIERS = np.concatenate([
    np.linspace(0.02, 1.0, 25), np.linspace(1.1, 3.0, 10),
])


def learn_relative_threshold(
    scored: dict[str, dict[str, float]],
    seeds: SeedLabelSet,
) -> float:
    """Best score-vs-uniform multiplier separating seed errors from good."""
    rows: list[tuple[float, bool]] = []  # (relative score, is_error)
    for concept, scores in scored.items():
        n = len(scores)
        if n == 0:
            continue
        uniform = 1.0 / n
        for seed in seeds.labels_for(concept):
            score = scores.get(seed.instance)
            if score is None:
                continue
            rows.append((score / uniform, seed.label is DPLabel.ACCIDENTAL))
    if not rows:
        return 0.5
    relative = np.array([rel for rel, _ in rows], dtype=float)
    is_error = np.array([err for _, err in rows], dtype=bool)
    # One comparison matrix covers every candidate at once: below[m, i] is
    # True when row i falls under multiplier m.
    below = relative[None, :] < _CANDIDATE_MULTIPLIERS[:, None]
    tp = (below & is_error[None, :]).sum(axis=1).astype(float)
    fp = (below & ~is_error[None, :]).sum(axis=1).astype(float)
    fn = (~below & is_error[None, :]).sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = np.where(tp > 0, 2 * precision * recall / (precision + recall), -1.0)
    best_f1 = -1.0
    best = 0.5
    for multiplier, score in zip(_CANDIDATE_MULTIPLIERS, f1):
        if score > best_f1 and score >= 0:
            best_f1 = float(score)
            best = float(multiplier)
    return best


def remove_below(
    kb: KnowledgeBase, scored: dict[str, dict[str, float]], multiplier: float
) -> None:
    """Remove every pair scoring below ``multiplier / n`` in its concept.

    ``n`` is the number of instances the concept scored; concepts with
    fewer than three are left alone.
    """
    for concept, scores in scored.items():
        n = len(scores)
        if n < 3:
            continue
        threshold = multiplier / n
        for instance, score in scores.items():
            if score < threshold:
                pair = IsAPair(concept, instance)
                if pair in kb:
                    kb.remove_pair(pair)


class RWRankCleaner(BaseCleaner):
    """Threshold cleaner over per-concept random-walk scores."""

    name = "rw_rank"

    def __init__(
        self,
        seeds: SeedLabelSet,
        ranker: RandomWalkRanker | None = None,
    ) -> None:
        self._seeds = seeds
        self._ranker = ranker or RandomWalkRanker()

    def clean(self, kb: KnowledgeBase, corpus: Corpus) -> CleaningResult:
        before = kb.removed_pairs()
        scored = self._ranker.score_all(kb)
        remove_below(kb, scored, learn_relative_threshold(scored, self._seeds))
        return self._result(self.name, before, kb)
