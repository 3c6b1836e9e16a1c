"""Instance-ranking models: frequency, PageRank, random walk with restart."""

from .base import Ranker
from .frequency import FrequencyRanker
from .graph import ConceptGraph, build_concept_graphs
from .pagerank import PageRankRanker
from .random_walk import RandomWalkRanker

__all__ = [
    "ConceptGraph",
    "FrequencyRanker",
    "PageRankRanker",
    "RandomWalkRanker",
    "Ranker",
    "build_concept_graphs",
]
