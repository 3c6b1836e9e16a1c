"""Tests for seed-labelling RULES 1–3."""

from __future__ import annotations

import numpy as np
import pytest

from repro.concepts import MutualExclusionIndex
from repro.config import LabelingConfig, SimilarityConfig
from repro.kb import IsAPair, KnowledgeBase
from repro.labeling import DPLabel, EvidenceIndex, SeedLabeler
from repro.labeling.labels import label_to_vector

from ..cleaning.per_instance import PerConceptSeedLabeler, PerInstanceEvidence


def _kb():
    """The paper's walkthrough: chicken bridges animal and food."""
    kb = KnowledgeBase()
    for sid in range(4):
        kb.add_extraction(sid, "animal", ("dog", "chicken"), iteration=1)
    for sid in range(4, 8):
        kb.add_extraction(sid, "animal", ("horse",), iteration=1)
    for sid in range(8, 12):
        kb.add_extraction(sid, "food", ("pork", "beef"), iteration=1)
    for sid in range(12, 16):
        kb.add_extraction(sid, "city", ("new york",), iteration=1)
    chicken = IsAPair("animal", "chicken")
    # chicken pulls pork and beef into animal, and (once) new york
    kb.add_extraction(
        16, "animal", ("pork", "beef", "chicken"), triggers=(chicken,),
        iteration=2,
    )
    kb.add_extraction(
        17, "animal", ("new york", "chicken"), triggers=(chicken,),
        iteration=3,
    )
    # dog triggers a clean sentence re-listing core animals
    dog = IsAPair("animal", "dog")
    kb.add_extraction(
        18, "animal", ("chicken", "dog"), triggers=(dog,), iteration=2
    )
    # horse triggers a sentence with an obscure (unevidenced) tail animal
    horse = IsAPair("animal", "horse")
    kb.add_extraction(
        19, "animal", ("emu", "horse"), triggers=(horse,), iteration=2
    )
    return kb


def _labeler(kb, rule3_mode="tolerant", k=3):
    # chicken sits in both the animal and food cores (sim 1/3), so the
    # exclusive threshold must exceed that for the pair to register.
    exclusion = MutualExclusionIndex(
        kb,
        SimilarityConfig(
            exclusive_threshold=0.4, similar_threshold=0.5, min_core_size=1
        ),
    )
    config = LabelingConfig(evidence_threshold_k=k)
    if rule3_mode == "tolerant":
        return SeedLabeler(kb, exclusion, EvidenceIndex(kb, config))
    # The paper's wording of RULE 3 lives only in the per-concept reference.
    evidence = PerInstanceEvidence(kb, exclusion, config)
    return PerConceptSeedLabeler(
        kb, exclusion, evidence, rule3_mode=rule3_mode
    )


def _labels(kb=None, **kwargs):
    return {
        seed.instance: seed.label
        for seed in _labeler(kb or _kb(), **kwargs)
        .label_all(["animal"])
        .labels_for("animal")
    }


class TestRules:
    def test_rule1_chicken_is_intentional(self):
        assert _labels()["chicken"] is DPLabel.INTENTIONAL

    def test_rule2_new_york_is_accidental(self):
        assert _labels()["new york"] is DPLabel.ACCIDENTAL

    def test_rule2_cross_extracted_drift_errors_accidental(self):
        labels = _labels()
        assert labels["pork"] is DPLabel.ACCIDENTAL
        assert labels["beef"] is DPLabel.ACCIDENTAL

    def test_rule3_dog_is_non_dp(self):
        assert _labels()["dog"] is DPLabel.NON_DP

    def test_benign_trigger_of_bridge_not_intentional(self):
        # dog triggered a sentence containing chicken; chicken is evidenced
        # food, but it is also evidenced (and core) animal, so RULE 1 must
        # not incriminate dog.
        assert _labels()["dog"] is not DPLabel.INTENTIONAL

    def test_core_sub_instance_does_not_incriminate(self):
        # chicken is core animal (one sentence, so not evidenced) and
        # evidenced food; dog, evidenced animal, triggered a sentence
        # holding chicken.  A core sub-instance belongs here, so RULE 1
        # must not fire on dog.
        kb = KnowledgeBase()
        for sid in range(4):
            kb.add_extraction(sid, "animal", ("dog",), iteration=1)
        kb.add_extraction(
            4, "animal", ("chicken", "horse", "cat", "cow"), iteration=1
        )
        for sid in range(5, 9):
            kb.add_extraction(
                sid, "food", ("chicken", "pork", "beef", "rice"), iteration=1
            )
        kb.add_extraction(
            9, "animal", ("chicken", "dog"),
            triggers=(IsAPair("animal", "dog"),), iteration=2,
        )
        assert _labels(kb)["dog"] is DPLabel.NON_DP

    def test_unevidenced_instances_stay_unlabelled(self):
        assert "emu" not in _labels()

    def test_tolerant_rule3_labels_horse(self):
        assert _labels()["horse"] is DPLabel.NON_DP

    def test_strict_rule3_skips_horse(self):
        # horse's sub-instance emu is not evidenced, so the paper-verbatim
        # rule refuses to label horse; the tolerant reading accepts it.
        strict = _labels(rule3_mode="strict")
        assert "horse" not in strict
        assert strict["dog"] is DPLabel.NON_DP  # all of dog's subs evidenced

    def test_bad_rule3_mode(self):
        with pytest.raises(ValueError):
            _labeler(_kb(), rule3_mode="loose")

    def test_label_all_grouping(self):
        seeds = _labeler(_kb()).label_all()
        assert len(seeds.labels_for("animal")) >= 3
        assert seeds.counts()[DPLabel.INTENTIONAL] >= 1
        assert len(seeds) == len(seeds.all_labels())


class TestLabelVectors:
    @pytest.mark.parametrize("label", list(DPLabel))
    def test_roundtrip(self, label):
        vector = label_to_vector(label)
        assert list(DPLabel)[int(np.argmax(vector))] is label

    def test_is_dp(self):
        assert DPLabel.INTENTIONAL.is_dp
        assert DPLabel.ACCIDENTAL.is_dp
        assert not DPLabel.NON_DP.is_dp
