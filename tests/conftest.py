"""Shared fixtures.

Heavy artefacts (worlds, corpora, extraction runs) are session-scoped: they
are deterministic, read-only in tests, and expensive enough that rebuilding
them per test would dominate suite runtime.
"""

from __future__ import annotations

import pytest

from repro.config import ConceptProfile, CorpusConfig, ExtractionConfig
from repro.corpus import generate_corpus
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.extraction import SemanticIterativeExtractor
from repro.world import paper_world, toy_world

from .world.motivating import motivating_example_world


@pytest.fixture(scope="session")
def toy_preset():
    return toy_world(seed=7)


@pytest.fixture(scope="session")
def toy_corpus(toy_preset):
    config = CorpusConfig(
        num_sentences=1500,
        profiles=toy_preset.profiles,
        default_profile=ConceptProfile(ambiguous_rate=0.5),
    )
    return generate_corpus(toy_preset.world, config, seed=11)


@pytest.fixture(scope="session")
def toy_extraction(toy_corpus):
    extractor = SemanticIterativeExtractor(ExtractionConfig(stream_chunks=4))
    return extractor.run(toy_corpus)


@pytest.fixture(scope="session")
def small_paper_preset():
    return paper_world(seed=3, scale=0.5)


@pytest.fixture(scope="session")
def motivating_preset():
    return motivating_example_world()


@pytest.fixture(scope="session")
def small_pipeline():
    """A small-but-real pipeline: the scale 1.0 paper world, 6 k sentences.

    Large enough for drift and detection to behave qualitatively like the
    paper-scale runs, small enough to keep the suite fast.  Tests only
    read it (or clean copies from ``extract()``).
    """
    preset = paper_world(seed=11, scale=1.0)
    config = experiment_config(
        num_sentences=6000, seed=11, profiles=preset.profiles
    )
    return Pipeline(preset=preset, config=config)
