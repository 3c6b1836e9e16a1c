"""The all-concept array passes equal the per-concept references mid-clean.

A DP clean rolls back records and removes pairs, so after two rounds the
KB's instance ids cover removed instances and its edge codes point into
inactive records.  Each detection refit from then on rebuilds the feature
matrices and seed labels of every analysed concept; this pins both to the
per-concept loops of ``tests/cleaning/per_instance.py`` run over the
same KB, scores and verified sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleaning import DPCleaner
from repro.concepts import MutualExclusionIndex
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.world import paper_world

from ..cleaning.per_instance import (
    PerConceptFeatureExtractor,
    PerConceptSeedLabeler,
    PerInstanceEvidence,
)


@pytest.fixture(scope="module")
def compared_refits():
    """(removed pairs, inactive records, production and reference
    matrices, production and reference seeds) at every refit after the
    first two rounds."""
    preset = paper_world(seed=3, scale=0.5)
    config = experiment_config(
        num_sentences=3000, seed=3, profiles=preset.profiles
    )
    pipeline = Pipeline(preset=preset, config=config)
    extraction = pipeline.extract()
    detect = pipeline.detect_fn()
    calls = []
    refits = []

    def compare_then_detect(kb):
        calls.append(kb.version)
        if len(calls) > 2:
            inputs = pipeline._inputs(kb)
            concepts = pipeline.analysis_concepts(kb)
            exclusion = MutualExclusionIndex(kb, config.similarity)
            features = PerConceptFeatureExtractor(kb, exclusion, inputs.scores)
            evidence = PerInstanceEvidence(
                kb, exclusion, config.labeling, inputs.verified
            )
            refits.append((
                kb.removed_pairs(),
                [r for r in range(kb.num_records) if not kb.is_active(r)],
                inputs.matrices,
                {c: features.feature_matrix(c) for c in concepts},
                inputs.seeds,
                PerConceptSeedLabeler(kb, exclusion, evidence).label_all(
                    concepts
                ),
            ))
        return detect(kb)

    cleaner = DPCleaner(
        compare_then_detect,
        ranker=pipeline.ranker,
        context=pipeline.context,
        analysis=pipeline.analysis,
    )
    cleaner.clean(extraction.kb, extraction.corpus)
    return refits


def test_refits_after_two_rounds_were_compared(compared_refits):
    assert compared_refits
    removed, inactive = compared_refits[0][:2]
    assert removed and inactive


def test_feature_matrices_equal_the_per_concept_reference(compared_refits):
    for _, _, matrices, reference, _, _ in compared_refits:
        assert list(matrices) == list(reference)
        for concept, matrix in matrices.items():
            assert matrix.instances == reference[concept].instances
            assert np.array_equal(matrix.x, reference[concept].x)
            assert matrix.x.tobytes() == reference[concept].x.tobytes()


def test_seed_labels_equal_the_per_concept_reference(compared_refits):
    for *_, seeds, reference in compared_refits:
        assert list(seeds.by_concept.items()) == list(
            reference.by_concept.items()
        )
