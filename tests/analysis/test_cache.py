"""Equivalence tests for the analysis cache and the refreshed indexes.

The cache's contract is observational: every artefact it returns must be
exactly what a from-scratch rebuild over the same KB state would produce.
Hypothesis drives randomized rollback histories against the incremental
paths with fresh rebuilds as oracles, and a small-but-real pipeline pins
the end-to-end guarantee — production cleaning observes and removes
exactly what the cache-off oracles of ``tests/cleaning/uncached.py`` do.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisCache
from repro.cleaning import DPCleaner
from repro.concepts import CoreSimilarity, MutualExclusionIndex
from repro.config import LabelingConfig
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.features import FeatureExtractor
from repro.kb import IsAPair, KnowledgeBase, RollbackEngine
from repro.labeling import EvidenceIndex
from repro.world import paper_world

from ..cleaning.per_instance import (
    PerConceptFeatureExtractor,
    PerConceptSeedLabeler,
    PerInstanceEvidence,
)
from ..cleaning.uncached import (
    UncachedExclusion,
    UncachedRanker,
    uncached_detect,
)

_CONCEPTS = ("animal", "food", "city", "country", "tool")
_INSTANCES = tuple(f"i{k}" for k in range(10))


@st.composite
def extraction_kbs(draw):
    """A small KB with chained (trigger-linked) extraction records."""
    kb = KnowledgeBase()
    num_records = draw(st.integers(min_value=3, max_value=12))
    pairs: list[IsAPair] = []
    for rid in range(num_records):
        concept = draw(st.sampled_from(_CONCEPTS))
        names = tuple(
            draw(
                st.lists(
                    st.sampled_from(_INSTANCES),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
        iteration = draw(st.integers(min_value=1, max_value=3))
        triggers = ()
        own_pairs = [pair for pair in pairs if pair.concept == concept]
        if own_pairs and iteration > 1 and draw(st.booleans()):
            triggers = (draw(st.sampled_from(own_pairs)),)
        kb.add_extraction(
            rid, concept, names, triggers=triggers, iteration=iteration
        )
        pairs.extend(IsAPair(concept, name) for name in names)
    return kb


def _mutate(kb: KnowledgeBase, data) -> None:
    """One randomized rollback wave (records and/or a whole pair)."""
    engine = RollbackEngine(kb)
    active = [record.rid for record in kb.records()]
    if active and data.draw(st.booleans(), label="rollback_records"):
        victims = data.draw(
            st.lists(
                st.sampled_from(active), min_size=1, max_size=3, unique=True
            ),
            label="victim_records",
        )
        engine.rollback_records(victims)
    alive = sorted(kb.pairs())
    if alive and data.draw(st.booleans(), label="rollback_pair"):
        engine.rollback_pair(
            data.draw(st.sampled_from(alive), label="victim_pair")
        )


class TestSimilarityRefresh:
    @given(extraction_kbs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_refresh_matches_rebuild(self, kb, data):
        incremental = CoreSimilarity(kb)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            _mutate(kb, data)
            incremental.refresh()
            fresh = CoreSimilarity(kb)
            assert incremental.concepts == fresh.concepts
            for a in _CONCEPTS:
                assert incremental.core(a) == fresh.core(a)
                assert incremental.overlapping(a) == fresh.overlapping(a)
                for b in _CONCEPTS:
                    assert incremental.similarity(a, b) == fresh.similarity(
                        a, b
                    )

    @given(extraction_kbs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_refresh_reports_every_changed_row(self, kb, data):
        sim = CoreSimilarity(kb)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            before = {
                (a, b): sim.similarity(a, b)
                for a in _CONCEPTS
                for b in _CONCEPTS
            }
            _mutate(kb, data)
            affected = sim.refresh()
            for (a, b), value in before.items():
                if a not in affected and b not in affected:
                    assert sim.similarity(a, b) == value


class TestExclusionRefresh:
    @given(extraction_kbs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_refresh_matches_rebuild(self, kb, data):
        incremental = MutualExclusionIndex(kb)
        # Warm the pairwise memo so refresh() must invalidate correctly.
        for a in _CONCEPTS:
            for b in _CONCEPTS:
                incremental.exclusive(a, b)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            _mutate(kb, data)
            incremental.refresh()
            fresh = MutualExclusionIndex(kb)
            for a in _CONCEPTS:
                assert incremental.group(a) == fresh.group(a)
                for b in _CONCEPTS:
                    assert incremental.exclusive(a, b) == fresh.exclusive(
                        a, b
                    )
                    assert incremental.highly_similar(
                        a, b
                    ) == fresh.highly_similar(a, b)

    @given(extraction_kbs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_closure_covers_every_flipped_verdict(self, kb, data):
        index = MutualExclusionIndex(kb)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            before = {
                (a, b): index.exclusive(a, b)
                for a in _CONCEPTS
                for b in _CONCEPTS
            }
            _mutate(kb, data)
            closure = index.refresh()
            for (a, b), verdict in before.items():
                if a not in closure and b not in closure:
                    assert index.exclusive(a, b) == verdict


def _verified_sampler(kb: KnowledgeBase, concept: str) -> frozenset[IsAPair]:
    """Deterministic stand-in for the pipeline's verified-source sampler
    (a pure function of the concept's alive instances, as required)."""
    return frozenset(
        IsAPair(concept, name)
        for name in kb.instances_of(concept)
        if name[-1] in "02468"
    )


class TestAnalysisCacheEquivalence:
    @given(extraction_kbs(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matrices_and_seeds_match_fresh_build(self, kb, data):
        cache = AnalysisCache()
        ranker = UncachedRanker()
        config = LabelingConfig()
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            _mutate(kb, data)
            concepts = kb.concepts()
            exclusion = cache.exclusion(kb)
            scores = ranker.score_all(kb, concepts)
            features = FeatureExtractor(kb, exclusion, scores)
            matrices = cache.matrices(kb, concepts, features)
            verified = cache.verified(kb, concepts, _verified_sampler)
            evidence = EvidenceIndex(kb, config, verified=verified)
            seeds = cache.seeds(kb, concepts, evidence)

            fresh_exclusion = MutualExclusionIndex(kb)
            fresh_features = PerConceptFeatureExtractor(
                kb, fresh_exclusion, scores
            )
            for concept in concepts:
                fresh = fresh_features.feature_matrix(concept)
                assert matrices[concept].instances == fresh.instances
                assert np.array_equal(matrices[concept].x, fresh.x)
            fresh_verified: frozenset[IsAPair] = frozenset().union(
                *(_verified_sampler(kb, c) for c in concepts)
            )
            assert verified == fresh_verified
            fresh_evidence = PerInstanceEvidence(
                kb, fresh_exclusion, config, verified=fresh_verified
            )
            for concept in concepts:
                assert evidence.evidenced_correct(
                    concept
                ) == fresh_evidence.evidenced_correct(concept)
            fresh_seeds = PerConceptSeedLabeler(
                kb, fresh_exclusion, fresh_evidence
            ).label_all(concepts)

            def key(label):
                return (label.concept, label.instance, label.label.value)

            assert sorted(map(key, seeds.all_labels())) == sorted(
                map(key, fresh_seeds.all_labels())
            )


class TestCleanerCacheEquivalence:
    """Production and cache-off cleaning must be indistinguishable."""

    def _outcome(self, analysis_cache: bool):
        preset = paper_world(seed=3, scale=0.5)
        config = experiment_config(
            num_sentences=3000, seed=3, profiles=preset.profiles
        )
        pipeline = Pipeline(preset=preset, config=config)
        extraction = pipeline.extract()
        if analysis_cache:
            cleaner = pipeline.dp_cleaner()
        else:
            cleaner = DPCleaner(
                uncached_detect(pipeline),
                ranker=UncachedRanker(),
                context=pipeline.context,
                analysis=UncachedExclusion(config.similarity),
            )
        result = cleaner.clean(extraction.kb, extraction.corpus, max_rounds=2)
        rounds = [
            (
                stats.round_index,
                stats.intentional_dps,
                stats.accidental_dps,
                stats.records_rolled_back,
                stats.pairs_removed,
                stats.sentence_checks,
            )
            for stats in result.details["rounds"]
        ]
        return result.removed_pairs, result.records_rolled_back, rounds

    def test_cache_on_off_bit_identical(self):
        removed_on, rolled_on, rounds_on = self._outcome(True)
        removed_off, rolled_off, rounds_off = self._outcome(False)
        assert removed_on == removed_off
        assert rolled_on == rolled_off
        # Sentence checks compare bit-exactly: same sentences re-scored,
        # same chosen concepts, identical score tuples.
        assert rounds_on == rounds_off
        assert removed_on  # the scenario actually exercises the cleaner


class TestKBLifetime:
    """The cache observes KBs; it must not keep a dropped one alive."""

    def test_exclusion_state_does_not_pin_its_kb(self):
        kb = KnowledgeBase()
        kb.add_extraction(0, "animal", ("dog", "cat"), iteration=1)
        kb.add_extraction(1, "food", ("rice", "dog"), iteration=1)
        cache = AnalysisCache()
        exclusion = cache.exclusion(kb)
        collected = []
        weakref.finalize(kb, collected.append, True)
        del kb
        gc.collect()
        assert collected == [True]
        # A collected KB can no longer change: refreshing finds nothing.
        assert exclusion.refresh() == frozenset()
