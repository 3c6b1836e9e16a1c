"""Fig. 5 — the three diagnostic curves of §5.

* **5(a)** — number of distinct isA pairs and their precision per
  extraction iteration (pairs grow several-fold while precision collapses);
* **5(b)** — precision and recall of the automatically labelled seeds as
  the evidence threshold ``k`` sweeps 0…8 (precision rises, yield falls);
* **5(c)** — detector accuracy over the multi-task training iterations
  (rises, then stabilises).
"""

from __future__ import annotations

from dataclasses import replace

from ..config import LabelingConfig
from ..evaluation.metrics import detection_metrics
from ..evaluation.report import format_table
from ..labeling.evidence import EvidenceIndex
from ..labeling.labels import DPLabel
from ..labeling.rules import SeedLabeler
from ..learning.detector import DPDetector
from .base import ExperimentResult, default_pipeline
from .pipeline import Pipeline

__all__ = ["run_figure5a", "run_figure5b", "run_figure5c"]


def run_figure5a(pipeline: Pipeline | None = None) -> ExperimentResult:
    """Pairs and precision per extraction iteration."""
    pipeline = default_pipeline(pipeline)
    artifacts = pipeline.analyze(fit_detector=False)
    kb = artifacts.kb
    truth = artifacts.truth
    targets = set(artifacts.target_concepts)
    pair_rows = [
        (pair, kb.first_iteration(pair))
        for pair in kb.pairs()
        if pair.concept in targets
    ]
    rows = []
    series = []
    for entry in artifacts.extraction.log:
        good = bad = 0
        for pair, first in pair_rows:
            if first <= entry.iteration:
                if truth.is_correct(pair.concept, pair.instance):
                    good += 1
                else:
                    bad += 1
        precision = good / (good + bad) if good + bad else 0.0
        rows.append((
            entry.iteration, entry.total_pairs, round(precision, 4)
        ))
        series.append({
            "iteration": entry.iteration,
            "distinct_pairs": entry.total_pairs,
            "precision": precision,
        })
    return ExperimentResult(
        name="figure5a",
        title="Fig. 5(a): # of distinct isA pairs and precision per iteration",
        text=format_table(("iteration", "# distinct pairs", "precision"), rows),
        data={"series": series},
    )


def run_figure5b(
    pipeline: Pipeline | None = None,
    k_values: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8),
) -> ExperimentResult:
    """Seed-label precision and yield as the evidence threshold sweeps."""
    pipeline = default_pipeline(pipeline)
    artifacts = pipeline.analyze(fit_detector=False)
    kb = artifacts.kb
    truth = artifacts.truth
    concepts = pipeline.analysis_concepts(kb)
    total_instances = sum(len(kb.instances_of(c)) for c in concepts)
    rows = []
    series = []
    for k in k_values:
        evidence = EvidenceIndex(
            kb,
            LabelingConfig(evidence_threshold_k=k),
            verified=artifacts.verified,
        )
        seeds = SeedLabeler(kb, artifacts.exclusion, evidence).label_all(
            concepts
        )
        good = 0
        for seed in seeds.all_labels():
            if seed.label is DPLabel.ACCIDENTAL:
                good += truth.is_error(seed.concept, seed.instance)
            elif seed.label is DPLabel.INTENTIONAL:
                good += (
                    truth.dp_label(seed.concept, seed.instance)
                    is DPLabel.INTENTIONAL
                )
            else:
                good += truth.is_correct(seed.concept, seed.instance)
        precision = good / len(seeds) if len(seeds) else 0.0
        recall = len(seeds) / total_instances if total_instances else 0.0
        rows.append((k, round(precision, 4), round(recall, 4), len(seeds)))
        series.append({
            "k": k, "precision": precision, "recall": recall,
            "seeds": len(seeds),
        })
    return ExperimentResult(
        name="figure5b",
        title="Fig. 5(b): precision and recall of the labelled seeds vs. k",
        text=format_table(("k", "precision", "recall", "#seeds"), rows),
        data={"series": series},
    )


def run_figure5c(
    pipeline: Pipeline | None = None,
    iterations: int = 20,
) -> ExperimentResult:
    """Detector accuracy per multi-task training iteration."""
    pipeline = default_pipeline(pipeline)
    artifacts = pipeline.analyze(fit_detector=False)
    targets = list(artifacts.target_concepts)
    config = replace(
        pipeline.config.detector,
        training_iterations=iterations,
        tolerance=0.0,  # force the full trace
    )
    detector = DPDetector(config, method="multitask", seed=pipeline.config.seed)

    def eval_fn(partial: DPDetector) -> float:
        metrics = detection_metrics(
            artifacts.truth, partial.predict_all(), targets
        )
        return metrics.accuracy

    detector.fit(artifacts.matrices, artifacts.seeds, eval_fn=eval_fn)
    rows = [
        (i + 1, round(accuracy, 4))
        for i, accuracy in enumerate(detector.accuracy_history)
    ]
    return ExperimentResult(
        name="figure5c",
        title="Fig. 5(c): detector accuracy over training iterations",
        text=format_table(("training iteration", "accuracy"), rows),
        data={
            "accuracy": detector.accuracy_history,
            "objective": detector.objective_history,
        },
    )
