"""Extension: the ranking-cleaner threshold Pareto front.

The paper's related-work argument (§6): heuristic cleaners "rely on
arbitrary thresholds to divide all extractions into two parts, which can
hardly reach both high precision and satisfied recall".  This experiment
makes that quantitative: it sweeps the RW-Rank threshold across its whole
range, records the (r_error, p_error, r_corr) trade-off curve, and marks
where the (threshold-free) DP cleaning point lands relative to the front.
"""

from __future__ import annotations

from ..evaluation.ground_truth import GroundTruth
from ..evaluation.metrics import cleaning_metrics
from ..evaluation.report import format_table
from ..ranking.random_walk import RandomWalkRanker
from .base import ExperimentResult, default_pipeline
from .pipeline import Pipeline
from .table3 import run_cleaner

__all__ = ["run_threshold_sweep"]

_MULTIPLIERS = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5)


def _sweep(pipeline: Pipeline, targets: list[str]):
    """The RW-Rank rows and curve, one row per threshold multiplier.

    One extraction scored once; each threshold is evaluated analytically
    against the same snapshot (removal = score below multiplier/n).  Its
    KB is local, so it is freed before the DP row copies another.
    """
    kb = pipeline.extract().kb
    truth = GroundTruth(pipeline.preset.world, kb)
    scored = RandomWalkRanker().score_all(kb)
    before = {concept: kb.instances_of(concept) for concept in kb.concepts()}

    rows = []
    curve = []
    for multiplier in _MULTIPLIERS:
        after: dict[str, frozenset[str]] = {}
        for concept, instances in before.items():
            scores = scored.get(concept, {})
            n = len(scores)
            if n < 3:
                after[concept] = instances
                continue
            threshold = multiplier / n
            after[concept] = frozenset(
                instance
                for instance in instances
                if scores.get(instance, 0.0) >= threshold
            )
        metrics = cleaning_metrics(truth, before, after, targets)
        rows.append((
            f"RW-Rank t={multiplier:g}/n",
            round(metrics.p_error, 4), round(metrics.r_error, 4),
            round(metrics.p_corr, 4), round(metrics.r_corr, 4),
        ))
        curve.append({
            "multiplier": multiplier,
            "p_error": metrics.p_error, "r_error": metrics.r_error,
            "p_corr": metrics.p_corr, "r_corr": metrics.r_corr,
        })
    return rows, curve


def run_threshold_sweep(pipeline: Pipeline | None = None) -> ExperimentResult:
    """Sweep RW-Rank's removal threshold; compare against DP cleaning."""
    pipeline = default_pipeline(pipeline)
    targets = list(pipeline.preset.target_concepts)
    rows, curve = _sweep(pipeline, targets)
    dp_metrics = run_cleaner(pipeline, pipeline.dp_cleaner(), targets)[0]
    rows.append((
        "DP Cleaning (no threshold)",
        round(dp_metrics.p_error, 4), round(dp_metrics.r_error, 4),
        round(dp_metrics.p_corr, 4), round(dp_metrics.r_corr, 4),
    ))
    dp_point = {
        "p_error": dp_metrics.p_error, "r_error": dp_metrics.r_error,
        "p_corr": dp_metrics.p_corr, "r_corr": dp_metrics.r_corr,
    }
    return ExperimentResult(
        name="threshold_sweep",
        title="Extension: RW-Rank threshold trade-off vs. DP cleaning",
        text=format_table(
            ("variant", "p_error", "r_error", "p_corr", "r_corr"), rows
        ),
        data={"curve": curve, "dp_cleaning": dp_point},
    )
