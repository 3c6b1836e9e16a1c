"""Instance-ranking models: frequency, PageRank, random walk with restart."""

from .base import RANKERS, Ranker, get_ranker, register_ranker
from .frequency import FrequencyRanker
from .graph import ConceptGraph, build_concept_graph, build_concept_graphs
from .pagerank import PageRankRanker
from .random_walk import RandomWalkRanker, random_walk_scores

__all__ = [
    "ConceptGraph",
    "FrequencyRanker",
    "PageRankRanker",
    "RANKERS",
    "RandomWalkRanker",
    "Ranker",
    "build_concept_graph",
    "build_concept_graphs",
    "get_ranker",
    "random_walk_scores",
    "register_ranker",
]
