"""Micro-benchmarks for the heavy substrates (not tied to one table).

These track the cost of the stages the tables are built from, so
regressions in the expensive kernels (corpus generation, extraction,
random walks, rollback) are visible independently of experiment wiring.
"""

from __future__ import annotations

import pytest

from repro.cleaning import DPCleaner
from repro.concepts import MutualExclusionIndex
from repro.config import CleaningConfig
from repro.corpus import CorpusGenerator
from repro.extraction import SemanticIterativeExtractor
from repro.kb import IsAPair, RollbackEngine
from repro.labeling import DPLabel
from repro.ranking import RandomWalkRanker

from .conftest import make_pipeline, run_once


@pytest.fixture(scope="module")
def extraction(bench_pipeline):
    return bench_pipeline.extract()


def test_bench_corpus_generation(benchmark, bench_pipeline):
    """Sentence generation throughput."""
    generator = CorpusGenerator(
        bench_pipeline.preset.world, bench_pipeline.config.corpus, seed=5
    )
    corpus = run_once(benchmark, generator.generate)
    assert len(corpus) >= bench_pipeline.config.corpus.num_sentences * 0.9


def test_bench_extraction(benchmark, bench_pipeline):
    """Full iterative extraction over the bench corpus."""
    corpus = bench_pipeline.corpus()
    extractor = SemanticIterativeExtractor(bench_pipeline.config.extraction)
    result = run_once(benchmark, extractor.run, corpus)
    assert result.total_pairs > 1000
    assert result.iterations >= 5


def test_bench_random_walk(benchmark, bench_pipeline, extraction):
    """Random-walk scoring across all analysed concepts."""
    concepts = bench_pipeline.analysis_concepts(extraction.kb)
    scores = run_once(
        benchmark, RandomWalkRanker().score_all, extraction.kb, concepts
    )
    assert len(scores) == len(concepts)


def test_bench_exclusion_index(benchmark, extraction):
    """Mutual-exclusion index construction."""
    index = run_once(benchmark, MutualExclusionIndex, extraction.kb)
    assert index.exclusive("animal", "food")


def test_bench_rollback_cascade(benchmark):
    """Cascading rollback of every accidental-looking DP in one sweep."""
    pipeline = make_pipeline()
    extraction = pipeline.extract()
    kb = extraction.kb
    detect = pipeline.detect_fn()
    labels = detect(kb)
    accidental = [
        (concept, instance)
        for concept, by_instance in labels.items()
        for instance, label in by_instance.items()
        if label is DPLabel.ACCIDENTAL
    ][:300]

    def rollback_all():
        engine = RollbackEngine(kb)
        from repro.kb import IsAPair

        total = 0
        for concept, instance in accidental:
            pair = IsAPair(concept, instance)
            if pair in kb:
                total += engine.rollback_pair(pair).num_pairs
        return total

    removed = run_once(benchmark, rollback_all)
    assert removed > 0


def test_bench_detect_refit(benchmark):
    """One warm detection refit after a rollback wave.

    This is the cleaning loop's per-round step: the cold fit primes the
    analysis cache (exclusion index, matrices, seeds, KPCA embedding),
    a rollback wave dirties a slice of the KB, and the timed call refits
    the detector incrementally on the mutated KB.
    """
    pipeline = make_pipeline()
    extraction = pipeline.extract()
    kb = extraction.kb
    detect = pipeline.detect_fn()
    labels = detect(kb)  # cold fit outside the timer
    accidental = [
        IsAPair(concept, instance)
        for concept, by_instance in labels.items()
        for instance, label in by_instance.items()
        if label is DPLabel.ACCIDENTAL
    ][:120]
    engine = RollbackEngine(kb)
    for pair in accidental:
        if pair in kb:
            engine.rollback_pair(pair)
    labels = run_once(benchmark, detect, kb)
    assert labels


def test_bench_dp_cleaning_round(benchmark):
    """One full DP cleaning run (fresh pipeline per measurement)."""
    pipeline = make_pipeline()
    extraction = pipeline.extract()
    cleaner = DPCleaner(
        pipeline.detect_fn(),
        CleaningConfig(max_cleaning_rounds=2),
        ranker=pipeline.ranker,
        context=pipeline.context,
        analysis=pipeline.analysis,
    )
    result = run_once(
        benchmark, cleaner.clean, extraction.kb, extraction.corpus
    )
    assert result.num_removed > 100
