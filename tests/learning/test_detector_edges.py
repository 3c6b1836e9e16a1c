"""Edge-case tests for the detector facade and seed containers."""

from __future__ import annotations

import numpy as np

from repro.features.matrix import ConceptMatrix
from repro.labeling import DPLabel, SeedLabel
from repro.labeling.rules import SeedLabelSet
from repro.learning import DPDetector


def _matrix(concept, rows, names=None):
    x = np.array(rows, dtype=float) if rows else np.zeros((0, 4))
    names = names or tuple(f"{concept}_{i}" for i in range(len(rows)))
    return ConceptMatrix(concept=concept, instances=tuple(names), x=x)


def _seeds(entries):
    seeds = SeedLabelSet()
    for concept, instance, label in entries:
        seeds.add(SeedLabel(concept, instance, label))
    return seeds


class TestDetectorEdges:
    def _world(self):
        rng = np.random.default_rng(0)
        good = lambda: [rng.uniform(0.5, 1), 0.0, rng.uniform(0.005, 0.02),
                        rng.uniform(0.005, 0.02)]
        bad = lambda: [rng.uniform(0, 0.1), rng.uniform(1, 2),
                       rng.uniform(0, 0.001), rng.uniform(0, 0.001)]
        rows = [good() for _ in range(10)] + [bad() for _ in range(10)]
        names = tuple(f"e{i}" for i in range(20))
        matrices = {
            "c0": _matrix("c0", rows, names),
            "empty": _matrix("empty", []),
        }
        entries = [
            ("c0", f"e{i}", DPLabel.NON_DP) for i in range(0, 10, 2)
        ] + [
            ("c0", f"e{i}", DPLabel.ACCIDENTAL) for i in range(10, 20, 2)
        ]
        return matrices, _seeds(entries)

    def test_empty_concept_predicts_empty(self):
        matrices, seeds = self._world()
        detector = DPDetector(method="multitask", seed=0).fit(matrices, seeds)
        assert detector.predict_concept("empty") == {}

    def test_two_class_seeds_still_work(self):
        # no intentional seeds at all — the third class simply never wins
        matrices, seeds = self._world()
        detector = DPDetector(method="multitask", seed=0).fit(matrices, seeds)
        predictions = detector.predict_concept("c0")
        assert set(predictions.values()) <= {
            DPLabel.NON_DP, DPLabel.ACCIDENTAL, DPLabel.INTENTIONAL
        }
        flagged = [n for n, l in predictions.items() if l.is_dp]
        assert len(flagged) >= 8  # the bad half is found

    def test_duplicate_seeds_deduplicated(self):
        matrices, seeds = self._world()
        seeds.add(SeedLabel("c0", "e0", DPLabel.ACCIDENTAL))  # conflicts
        detector = DPDetector(method="multitask", seed=0).fit(matrices, seeds)
        assert detector.predict_concept("c0")

    def test_seeds_for_unknown_instances_ignored(self):
        matrices, seeds = self._world()
        seeds.add(SeedLabel("c0", "ghost", DPLabel.NON_DP))
        detector = DPDetector(method="supervised", seed=0).fit(matrices, seeds)
        assert "ghost" not in detector.predict_concept("c0")


class TestSeedLabelSet:
    def test_counts_and_len(self):
        seeds = _seeds([
            ("a", "x", DPLabel.NON_DP),
            ("a", "y", DPLabel.ACCIDENTAL),
            ("b", "z", DPLabel.NON_DP),
        ])
        assert len(seeds) == 3
        assert seeds.counts()[DPLabel.NON_DP] == 2
        assert len(seeds.labels_for("a")) == 2
        assert seeds.labels_for("missing") == []
