"""Tests for the ad-hoc detectors and the DPDetector facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DetectorConfig
from repro.errors import LearningError, NotFittedError
from repro.features.matrix import ConceptMatrix
from repro.labeling import DPLabel, SeedLabel
from repro.labeling.rules import SeedLabelSet
from repro.learning import AdHocDetector, DPDetector
from repro.learning.detector import DETECTION_METHODS


def _features(rng, label):
    """Synthetic features following the paper's per-class profiles."""
    if label is DPLabel.NON_DP:
        return [
            rng.uniform(0.5, 1.0),          # f1 high
            0.0,                            # f2 zero
            rng.uniform(0.004, 0.02),       # f3 high
            rng.uniform(0.003, 0.02),       # f4 high
        ]
    if label is DPLabel.INTENTIONAL:
        return [
            rng.uniform(0.1, 0.4),
            rng.uniform(1.0, 3.0),
            rng.uniform(0.004, 0.02),
            rng.uniform(0.0005, 0.003),
        ]
    return [                                # accidental
        rng.uniform(0.0, 0.1),
        rng.uniform(1.0, 2.0),
        rng.uniform(0.0, 0.0008),
        rng.uniform(0.0, 0.0008),
    ]


def _world(num_concepts=4, per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    matrices = {}
    seeds = SeedLabelSet()
    truth = {}
    for c in range(num_concepts):
        concept = f"concept{c}"
        rows, names = [], []
        i = 0
        for label in (DPLabel.NON_DP, DPLabel.INTENTIONAL, DPLabel.ACCIDENTAL):
            for _ in range(per_class):
                name = f"e{c}_{i}"
                rows.append(_features(rng, label))
                names.append(name)
                truth[(concept, name)] = label
                if i % 2 == 0:  # half the instances are seeds
                    seeds.add(SeedLabel(concept, name, label))
                i += 1
        matrices[concept] = ConceptMatrix(
            concept=concept,
            instances=tuple(names),
            x=np.array(rows),
        )
    return matrices, seeds, truth


def _accuracy(detector, matrices, truth):
    good = total = 0
    for concept in matrices:
        for name, label in detector.predict_concept(concept).items():
            total += 1
            good += truth[(concept, name)] is label
    return good / total


class TestAdHocDetector:
    def test_threshold_learned(self):
        matrices, seeds, truth = _world()
        x = np.vstack([m.x for m in matrices.values()])
        labels = [truth[(c, n)] for c, m in matrices.items() for n in m.instances]
        is_dp = np.array([lab.is_dp for lab in labels])
        detector = AdHocDetector(3).fit(x, is_dp)
        assert 0 < detector.threshold < 0.02

    def test_f3_detector_separates(self):
        matrices, seeds, truth = _world()
        x = np.vstack([m.x for m in matrices.values()])
        labels = [truth[(c, n)] for c, m in matrices.items() for n in m.instances]
        is_dp = np.array([lab.is_dp for lab in labels])
        detector = AdHocDetector(2).fit(x, is_dp)
        predictions = detector.predict(x)
        flagged = np.array([p.is_dp for p in predictions])
        agreement = (flagged == is_dp).mean()
        assert agreement > 0.9

    def test_bad_property(self):
        with pytest.raises(LearningError):
            AdHocDetector(5)

    def test_unfitted_predict(self):
        with pytest.raises(LearningError):
            AdHocDetector(1).predict(np.zeros((1, 4)))

    def test_empty_fit_rejected(self):
        with pytest.raises(LearningError):
            AdHocDetector(1).fit(np.zeros((0, 4)), np.zeros(0, dtype=bool))


class TestDPDetector:
    @pytest.mark.parametrize("method", DETECTION_METHODS)
    def test_all_methods_beat_chance(self, method):
        matrices, seeds, truth = _world()
        detector = DPDetector(method=method, seed=0)
        detector.fit(matrices, seeds)
        accuracy = _accuracy(detector, matrices, truth)
        assert accuracy > 0.5, f"{method} accuracy {accuracy:.3f}"

    def test_multitask_accuracy_high_on_clean_data(self):
        matrices, seeds, truth = _world()
        detector = DPDetector(method="multitask", seed=0).fit(matrices, seeds)
        assert _accuracy(detector, matrices, truth) > 0.8

    def test_unseeded_concept_uses_pooled_fallback(self):
        matrices, seeds, truth = _world()
        # strip concept3's seeds entirely
        seeds.by_concept.pop("concept3", None)
        detector = DPDetector(method="multitask", seed=0).fit(matrices, seeds)
        predictions = detector.predict_concept("concept3")
        assert len(predictions) == matrices["concept3"].size
        good = sum(
            truth[("concept3", n)] is label for n, label in predictions.items()
        )
        assert good / len(predictions) > 0.6

    def test_unknown_method(self):
        with pytest.raises(LearningError):
            DPDetector(method="bogus")

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DPDetector().predict_concept("concept0")

    def test_unknown_concept_after_fit(self):
        matrices, seeds, _ = _world()
        detector = DPDetector(method="supervised", seed=0).fit(matrices, seeds)
        with pytest.raises(LearningError):
            detector.predict_concept("ghost")

    def test_non_dp_bias_increases_dp_flags(self):
        matrices, seeds, _ = _world()
        plain = DPDetector(method="multitask", seed=0).fit(matrices, seeds)
        biased = DPDetector(
            DetectorConfig(non_dp_bias=5.0), method="multitask", seed=0
        ).fit(matrices, seeds)
        plain_dps = sum(
            label.is_dp
            for c in matrices
            for label in plain.predict_concept(c).values()
        )
        biased_dps = sum(
            label.is_dp
            for c in matrices
            for label in biased.predict_concept(c).values()
        )
        assert biased_dps >= plain_dps

    def test_requires_seeds(self):
        matrices, _, _ = _world()
        with pytest.raises(LearningError):
            DPDetector(method="multitask", seed=0).fit(matrices, SeedLabelSet())

    def test_requires_matrices(self):
        _, seeds, _ = _world()
        with pytest.raises(LearningError):
            DPDetector(method="multitask", seed=0).fit({}, seeds)
