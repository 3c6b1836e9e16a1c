"""Table 3 — cleaning-method comparison (§5.3).

Each cleaner runs against its own copy of one extraction of the corpus,
and is scored on the four dimensions over the 20 target concepts.  Expected shape: MEx and TCh precise but low-recall; the two
ranking cleaners mid-precision / mid-recall with heavy collateral damage;
DP Cleaning best on every dimension jointly.
"""

from __future__ import annotations

from ..cleaning import (
    MutualExclusionCleaner,
    PRDualRankCleaner,
    RWRankCleaner,
    TypeCheckingCleaner,
)
from ..evaluation.ground_truth import GroundTruth
from ..evaluation.metrics import cleaning_metrics
from ..evaluation.report import format_table
from .base import ExperimentResult, default_pipeline
from .pipeline import Pipeline

__all__ = ["run_table3", "run_cleaner"]

_HEADERS = ("Cleaning Method", "p_error", "r_error", "p_correct", "r_correct")


def run_cleaner(pipeline: Pipeline, cleaner, concepts):
    """Run one cleaner on its own extraction.

    Returns (metrics, result, truth, extraction, before), ``before`` the
    concept → instances view of the extraction ahead of cleaning.  The
    whole run, scoring included, is one ``cleaner.run`` span.
    """
    with pipeline.context.span("cleaner.run", method=cleaner.name) as span:
        extraction = pipeline.extract()
        truth = GroundTruth(pipeline.preset.world, extraction.kb)
        before = {
            concept: extraction.kb.instances_of(concept)
            for concept in extraction.kb.concepts()
        }
        result = cleaner.clean(extraction.kb, extraction.corpus)
        after = {
            concept: extraction.kb.instances_of(concept) for concept in before
        }
        metrics = cleaning_metrics(truth, before, after, concepts)
        span.add("pairs_removed", result.num_removed)
    return metrics, result, truth, extraction, before


def _cleaners(pipeline: Pipeline):
    """The evaluation concepts, the uncleaned metrics and the cleaners.

    The analysis copy's KB stays reachable only through the seeds and
    evidence the PRDual-Rank and RW-Rank cleaners hold.
    """
    artifacts = pipeline.analyze(fit_detector=False)
    targets = list(artifacts.target_concepts)
    baseline_before = cleaning_metrics(
        artifacts.truth,
        artifacts.concept_instances(),
        artifacts.concept_instances(),
        targets,
    )
    cleaners = [
        ("MEx", MutualExclusionCleaner()),
        ("TCh", TypeCheckingCleaner(artifacts.ner(accuracy=0.95))),
        ("PRDual-Rank", PRDualRankCleaner(artifacts.seeds, artifacts.evidence)),
        ("RW-Rank", RWRankCleaner(artifacts.seeds)),
        ("DP Cleaning", pipeline.dp_cleaner()),
    ]
    return targets, baseline_before, cleaners


def run_table3(pipeline: Pipeline | None = None) -> ExperimentResult:
    """Regenerate Table 3."""
    pipeline = default_pipeline(pipeline)
    targets, baseline_before, cleaners = _cleaners(pipeline)
    rows: list[tuple] = [
        ("Before Cleaning", "-", "-",
         round(baseline_before.p_corr, 4), 1.0),
    ]
    data: dict[str, dict[str, float]] = {
        "Before Cleaning": {"p_corr": baseline_before.p_corr, "r_corr": 1.0}
    }
    while cleaners:
        # Keep only the metrics: the cleaned KB, its result and its truth
        # are dropped here, and each cleaner leaves the list as it runs,
        # so one cleaner's KB is alive at a time and the analysis copy is
        # gone before the DP row.
        label, cleaner = cleaners.pop(0)
        metrics = run_cleaner(pipeline, cleaner, targets)[0]
        rows.append((
            label,
            round(metrics.p_error, 4), round(metrics.r_error, 4),
            round(metrics.p_corr, 4), round(metrics.r_corr, 4),
        ))
        data[label] = {
            "p_error": metrics.p_error, "r_error": metrics.r_error,
            "p_corr": metrics.p_corr, "r_corr": metrics.r_corr,
            "removed": metrics.removed,
        }
    return ExperimentResult(
        name="table3",
        title="Table 3: cleaning performance vs. previous approaches",
        text=format_table(_HEADERS, rows),
        data=data,
    )
