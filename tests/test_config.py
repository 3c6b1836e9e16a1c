"""Validation tests for configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import (
    ConceptProfile,
    CorpusConfig,
    DetectorConfig,
    ExtractionConfig,
    LabelingConfig,
    PipelineConfig,
    SimilarityConfig,
)


class TestConceptProfile:
    def test_defaults_valid(self):
        profile = ConceptProfile()
        assert 0 <= profile.ambiguous_rate <= 1

    @pytest.mark.parametrize(
        "field", ["ambiguous_rate", "drift_rate", "bridge_rate",
                  "false_fact_rate", "typo_rate"],
    )
    def test_rates_bounded(self, field):
        with pytest.raises(ValueError):
            ConceptProfile(**{field: 1.5})
        with pytest.raises(ValueError):
            ConceptProfile(**{field: -0.1})

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError):
            ConceptProfile(sentence_share=-1)

    def test_scaled_returns_copy(self):
        profile = ConceptProfile()
        changed = profile.scaled(ambiguous_rate=0.9)
        assert changed.ambiguous_rate == 0.9
        assert profile.ambiguous_rate != 0.9


class TestCorpusConfig:
    def test_profile_fallback(self):
        config = CorpusConfig(profiles={"animal": ConceptProfile(drift_rate=0.9)})
        assert config.profile_for("animal").drift_rate == 0.9
        assert config.profile_for("other") == config.default_profile

    def test_rejects_zero_sentences(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_sentences=0)

    def test_rejects_bad_instance_bounds(self):
        with pytest.raises(ValueError):
            CorpusConfig(min_instances_per_sentence=5, max_instances_per_sentence=3)
        with pytest.raises(ValueError):
            CorpusConfig(min_instances_per_sentence=1)

    def test_rejects_bad_tail_settings(self):
        with pytest.raises(ValueError):
            CorpusConfig(tail_bias_rate=2.0)
        with pytest.raises(ValueError):
            CorpusConfig(tail_fraction=0.0)


class TestExtractionConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ExtractionConfig(policy="bogus")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ExtractionConfig(max_iterations=0)
        with pytest.raises(ValueError):
            ExtractionConfig(stream_chunks=0)


class TestSimilarityConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            SimilarityConfig(exclusive_threshold=0.5, similar_threshold=0.1)

    def test_min_core_size(self):
        with pytest.raises(ValueError):
            SimilarityConfig(min_core_size=0)


class TestOtherConfigs:
    def test_labeling_threshold_nonnegative(self):
        with pytest.raises(ValueError):
            LabelingConfig(evidence_threshold_k=-1)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(training_iterations=0)

    def test_pipeline_defaults_compose(self):
        config = PipelineConfig()
        assert config.corpus.num_sentences > 0
        assert config.extraction.max_iterations >= 1
