"""Ablation studies beyond the paper's own tables.

DESIGN.md commits to three ablations that probe the design choices the
paper motivates but never isolates:

* **feature ablation** — retrain the multi-task detector with each of the
  four features zeroed out, measuring how much each property contributes;
* **rollback ablation** — clean with DP detection but *without* the
  cascading rollback (drop flagged pairs only), quantifying how much of
  the cleaning power comes from cutting off propagation;
* **policy ablation** — re-extract under the ``max_evidence`` resolution
  policy and compare drift magnitude against the drift-prone ``nearest``
  attachment policy.
"""

from __future__ import annotations

from dataclasses import replace

from ..cleaning.base import BaseCleaner, CleaningResult
from ..cleaning.dp_cleaner import DetectFn
from ..corpus.corpus import Corpus
from ..evaluation.metrics import detection_metrics
from ..evaluation.report import format_table
from ..extraction.engine import SemanticIterativeExtractor
from ..features.matrix import ConceptMatrix
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase
from ..learning.detector import DPDetector
from ..labeling.labels import DPLabel
from .base import ExperimentResult, default_pipeline
from .pipeline import Pipeline
from .table3 import run_cleaner

__all__ = [
    "run_ablation_features",
    "run_ablation_rollback",
    "run_ablation_policy",
]


def _zero_feature(matrices, feature_index):
    """Copies of the concept matrices with one feature column zeroed."""
    ablated = {}
    for concept, matrix in matrices.items():
        x = matrix.x.copy()
        if x.size:
            x[:, feature_index] = 0.0
        ablated[concept] = ConceptMatrix(
            concept=concept, instances=matrix.instances, x=x
        )
    return ablated


def run_ablation_features(pipeline: Pipeline | None = None) -> ExperimentResult:
    """Detector F1 with each DP property removed."""
    pipeline = default_pipeline(pipeline)
    artifacts = pipeline.analyze(fit_detector=False)
    targets = list(artifacts.target_concepts)
    rows = []
    data: dict[str, dict[str, float]] = {}
    variants: list[tuple[str, int | None]] = [("all features", None)]
    variants += [(f"without f{i + 1}", i) for i in range(4)]
    for label, dropped in variants:
        matrices = (
            artifacts.matrices
            if dropped is None
            else _zero_feature(artifacts.matrices, dropped)
        )
        detector = DPDetector(
            pipeline.config.detector, method="multitask",
            seed=pipeline.config.seed,
        )
        detector.fit(matrices, artifacts.seeds)
        metrics = detection_metrics(
            artifacts.truth, detector.predict_all(), targets
        )
        rows.append((
            label, round(metrics.precision, 3), round(metrics.recall, 3),
            round(metrics.f1, 3),
        ))
        data[label] = {
            "precision": metrics.precision, "recall": metrics.recall,
            "f1": metrics.f1,
        }
    return ExperimentResult(
        name="ablation_features",
        title="Ablation: DP detection without each feature",
        text=format_table(("variant", "Precision", "Recall", "F1"), rows),
        data=data,
    )


class _DropOnlyCleaner(BaseCleaner):
    """Remove the detected Accidental DPs, with no cascades and no Eq. 21
    checks: the "treat DPs like ordinary errors" strawman."""

    name = "drop_only"

    def __init__(self, detect_fn: DetectFn) -> None:
        self._detect_fn = detect_fn

    def clean(self, kb: KnowledgeBase, corpus: Corpus) -> CleaningResult:
        before = kb.removed_pairs()
        for concept, by_instance in self._detect_fn(kb).items():
            for instance, label in by_instance.items():
                if label is DPLabel.ACCIDENTAL and kb.has_instance(
                    concept, instance
                ):
                    kb.remove_pair(IsAPair(concept, instance))
        return self._result(self.name, before, kb)


def run_ablation_rollback(pipeline: Pipeline | None = None) -> ExperimentResult:
    """DP cleaning with and without the cascading rollback (§4.2)."""
    pipeline = default_pipeline(pipeline)
    targets = list(pipeline.preset.target_concepts)
    rows = []
    data: dict[str, dict[str, float]] = {}
    full = run_cleaner(pipeline, pipeline.dp_cleaner(), targets)[0]
    drop_only = run_cleaner(
        pipeline, _DropOnlyCleaner(pipeline.detect_fn()), targets
    )[0]
    for label, metrics in (("full DP cleaning", full),
                           ("drop-only (no rollback)", drop_only)):
        rows.append((
            label, round(metrics.p_error, 4), round(metrics.r_error, 4),
            round(metrics.p_corr, 4), round(metrics.r_corr, 4),
        ))
        data[label] = {
            "p_error": metrics.p_error, "r_error": metrics.r_error,
            "p_corr": metrics.p_corr, "r_corr": metrics.r_corr,
        }
    return ExperimentResult(
        name="ablation_rollback",
        title="Ablation: cascading rollback vs. dropping DPs only",
        text=format_table(
            ("variant", "p_error", "r_error", "p_corr", "r_corr"), rows
        ),
        data=data,
    )


def run_ablation_policy(pipeline: Pipeline | None = None) -> ExperimentResult:
    """Drift magnitude under the two ambiguity-resolution policies."""
    pipeline = default_pipeline(pipeline)
    corpus = pipeline.corpus()
    world = pipeline.preset.world
    targets = set(pipeline.preset.target_concepts)
    rows = []
    data: dict[str, dict[str, float]] = {}
    for policy in ("nearest", "max_evidence"):
        config = replace(pipeline.config.extraction, policy=policy)
        result = SemanticIterativeExtractor(config).run(corpus)
        kb = result.kb
        good = bad = 0
        for pair in kb.pairs():
            if pair.concept in targets:
                if world.is_member(pair.concept, pair.instance):
                    good += 1
                else:
                    bad += 1
        precision = good / (good + bad) if good + bad else 0.0
        coverage = good / max(
            1, sum(len(world.members(c)) for c in targets)
        )
        rows.append((
            policy, len(kb), round(precision, 4), round(coverage, 4),
            result.iterations,
        ))
        data[policy] = {
            "pairs": len(kb), "target_precision": precision,
            "target_coverage": coverage, "iterations": result.iterations,
        }
    return ExperimentResult(
        name="ablation_policy",
        title="Ablation: nearest-attachment vs. max-evidence resolution",
        text=format_table(
            ("policy", "pairs", "target precision", "target coverage",
             "iterations"),
            rows,
        ),
        data=data,
    )
