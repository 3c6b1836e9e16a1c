"""Cache-off oracles for the DP cleaner's cache-equivalence suites.

Production cleaning reuses work across rounds in three places: the
ranker's mutation-versioned score cache, the cleaner's Eq. 21 check memo
and the analysis cache behind pipeline detection and the cleaner's
guards.  Each oracle here
recomputes from scratch instead, so the suites can pin production
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import AnalysisCache
from repro.cleaning import DPCleaner
from repro.cleaning.dp_cleaner import DetectFn
from repro.concepts import MutualExclusionIndex
from repro.features import FeatureExtractor
from repro.features.matrix import build_concept_matrix
from repro.labeling import EvidenceIndex, SeedLabeler
from repro.learning import DPDetector
from repro.ranking import RandomWalkRanker
from repro.rng import RandomStreams

__all__ = [
    "UncachedRanker",
    "UncachedExclusion",
    "MemolessDPCleaner",
    "uncached_detect",
]


class UncachedRanker(RandomWalkRanker):
    """A ranker whose ``score_all`` re-solves every concept, one by one."""

    def score_all(self, kb, concepts=None):
        names = list(concepts) if concepts is not None else kb.concepts()
        return {concept: self.score(kb, concept) for concept in names}


class UncachedExclusion(AnalysisCache):
    """An analysis cache whose exclusion index is rebuilt on every call."""

    def exclusion(self, kb):
        return MutualExclusionIndex(kb, self._similarity)


class MemolessDPCleaner(DPCleaner):
    """A DP cleaner whose Eq. 21 memo never outlives a round."""

    def _run_round(self, kb, by_sid, engine, round_index):
        self._check_memo = {}
        return super()._run_round(kb, by_sid, engine, round_index)


def uncached_detect(pipeline) -> DetectFn:
    """``pipeline.detect_fn()`` with every detector input rebuilt per call.

    Like production, the embedding fitted on the first call is frozen for
    later calls.
    """
    config = pipeline.config
    detector_config = replace(
        config.detector, non_dp_bias=config.cleaning.cleaning_non_dp_bias
    )
    ranker = UncachedRanker()
    streams = RandomStreams(config.seed)
    embedding = None

    def detect(kb):
        nonlocal embedding
        concepts = pipeline.analysis_concepts(kb)
        exclusion = MutualExclusionIndex(kb, config.similarity)
        scores = ranker.score_all(kb, concepts)
        features = FeatureExtractor(kb, exclusion, scores)
        matrices = {
            concept: build_concept_matrix(features, concept)
            for concept in concepts
        }
        verified = frozenset().union(
            *(pipeline._verified_concept(kb, concept) for concept in concepts)
        )
        evidence = EvidenceIndex(
            kb, exclusion, config.labeling, verified=verified
        )
        seeds = SeedLabeler(kb, exclusion, evidence).label_all(concepts)
        detector = DPDetector(
            detector_config, seed=streams.stream("detector")
        )
        detector.fit(matrices, seeds, embedding=embedding)
        embedding = detector.embedding
        return detector.predict_all()

    return detect
