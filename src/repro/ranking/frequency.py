"""The Frequency ranking model (§5.2 baseline).

Scores are proportional to how many distinct sentences produced the pair —
the paper's straw-man: frequency is a poor error signal because drift
errors can be more frequent than obscure correct instances.
"""

from __future__ import annotations

from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase
from .base import Ranker

__all__ = ["FrequencyRanker"]


class FrequencyRanker(Ranker):
    """Score ∝ evidence count, normalised per concept."""

    def score(self, kb: KnowledgeBase, concept: str) -> dict[str, float]:
        instances = kb.instances_of(concept)
        counts = {
            name: float(kb.count(IsAPair(concept, name))) for name in instances
        }
        total = sum(counts.values())
        if total <= 0:
            return {name: 0.0 for name in instances}
        return {name: value / total for name, value in counts.items()}
