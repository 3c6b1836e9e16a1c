"""Tests for the four DP features."""

from __future__ import annotations

import numpy as np
import pytest

from repro.concepts import MutualExclusionIndex
from repro.config import SimilarityConfig
from repro.features import FeatureExtractor
from repro.kb import IsAPair, KnowledgeBase

from ..cleaning.per_instance import PerConceptFeatureExtractor
from ..cleaning.uncached import build_concept_matrix


def _setup():
    kb = KnowledgeBase()
    # animal core: dog (3x), cat (2x), chicken (2x)
    for sid in range(3):
        kb.add_extraction(sid, "animal", ("dog",), iteration=1)
    kb.add_extraction(3, "animal", ("cat", "chicken"), iteration=1)
    kb.add_extraction(4, "animal", ("cat", "chicken"), iteration=1)
    # food core including chicken (the polysemous bridge)
    kb.add_extraction(5, "food", ("pork", "beef", "chicken"), iteration=1)
    # dog triggers a benign sentence listing core animals
    dog = IsAPair("animal", "dog")
    kb.add_extraction(6, "animal", ("cat", "dog"), triggers=(dog,), iteration=2)
    # chicken triggers drift: pork and beef land under animal
    chicken = IsAPair("animal", "chicken")
    kb.add_extraction(
        7, "animal", ("pork", "beef", "chicken"), triggers=(chicken,),
        iteration=2,
    )
    # chicken sits in both cores, giving sim(animal, food) = 1/3; the
    # exclusive threshold must sit above that for the pair to register as
    # mutually exclusive despite the shared bridge.
    exclusion = MutualExclusionIndex(
        kb,
        SimilarityConfig(
            exclusive_threshold=0.4, similar_threshold=0.5, min_core_size=1
        ),
    )
    scores = {
        "animal": {"dog": 0.3, "cat": 0.25, "chicken": 0.2, "pork": 0.01,
                   "beef": 0.01},
        "food": {"pork": 0.3, "beef": 0.3, "chicken": 0.3},
    }
    return kb, exclusion, scores


class TestFeatureExtractor:
    def test_f1_non_dp_triggers_core(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        dog = extractor.extract("animal", "dog")
        chicken = extractor.extract("animal", "chicken")
        assert dog.f1 == pytest.approx(1.0)  # all sub-mass on core (cat)
        assert chicken.f1 < dog.f1  # drift mass leaks off-core

    def test_f1_cosine_mode(self):
        kb, exclusion, scores = _setup()
        extractor = PerConceptFeatureExtractor(
            kb, exclusion, scores, f1_mode="cosine"
        )
        dog = extractor.extract("animal", "dog")
        assert 0 < dog.f1 <= 1.0

    def test_f1_mode_validation(self):
        kb, exclusion, scores = _setup()
        with pytest.raises(ValueError):
            PerConceptFeatureExtractor(kb, exclusion, scores, f1_mode="bogus")

    def test_f2_counts_exclusive_memberships(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        # chicken and pork live under both animal and food (exclusive)
        assert extractor.extract("animal", "chicken").f2 == 1.0
        assert extractor.extract("animal", "pork").f2 == 1.0
        assert extractor.extract("animal", "dog").f2 == 0.0

    def test_f3_is_walk_score(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        assert extractor.extract("animal", "dog").f3 == 0.3

    def test_f4_mean_sub_score(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        chicken = extractor.extract("animal", "chicken")
        assert chicken.f4 == pytest.approx(0.01)  # mean of pork, beef
        dog = extractor.extract("animal", "dog")
        assert dog.f4 == pytest.approx(0.25)  # cat only

    def test_no_subs_gives_zero_f1_f4(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        cat = extractor.extract("animal", "cat")
        assert cat.f1 == 0.0
        assert cat.f4 == 0.0

    def test_f1_core_needs_a_first_extraction_in_iteration_1(self):
        # x is first extracted in iteration 2 and only later gets an
        # iteration-1 record (a later batch of a stream): it has core
        # evidence but is not a core instance, so dog's mass on x is
        # off-core.
        kb = KnowledgeBase()
        for sid in range(3):
            kb.add_extraction(sid, "animal", ("dog",), iteration=1)
        kb.add_extraction(
            3, "animal", ("x", "dog"),
            triggers=(IsAPair("animal", "dog"),), iteration=2,
        )
        kb.add_extraction(4, "animal", ("x",), iteration=1)
        exclusion = MutualExclusionIndex(kb)
        extractor = FeatureExtractor(kb, exclusion, {})
        assert extractor.extract("animal", "dog").f1 == 0.0
        reference = PerConceptFeatureExtractor(kb, exclusion, {})
        assert np.array_equal(
            extractor.feature_matrices(["animal"])["animal"].x,
            reference.feature_matrix("animal").x,
        )

    def test_extract_concept_sorted(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        names = extractor.feature_matrices(["animal"])["animal"].instances
        assert list(names) == sorted(names)


class TestConceptMatrix:
    def test_build(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        matrix = build_concept_matrix(extractor, "animal")
        assert matrix.x.shape == (len(matrix.instances), 4)
        assert matrix.size == 5

    def test_row_of(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        matrix = build_concept_matrix(extractor, "animal")
        row = matrix.row_of("dog")
        assert matrix.instances[row] == "dog"
        with pytest.raises(KeyError):
            matrix.row_of("ghost")

    def test_empty_concept(self):
        kb, exclusion, scores = _setup()
        extractor = FeatureExtractor(kb, exclusion, scores)
        matrix = build_concept_matrix(extractor, "ghost")
        assert matrix.size == 0
        assert matrix.x.shape == (0, 4)
