"""Table 5 — per-concept DP-cleaning evaluation (§5.5).

For each of the 20 target concepts: the precision/recall of the Eq. 21
sentence checks on Intentional-DP-triggered extractions (``p_stc`` /
``r_stc``), and the four cleaning dimensions after the full DP-based
cleaning, plus the overall row.
"""

from __future__ import annotations

from ..evaluation.metrics import cleaning_metrics, sentence_check_metrics
from ..evaluation.report import format_table
from .base import ExperimentResult, default_pipeline
from .pipeline import Pipeline
from .table3 import run_cleaner

__all__ = ["run_table5"]

_HEADERS = (
    "concept", "p_stc", "r_stc", "p_error", "r_error", "p_corr", "r_corr",
)


def run_table5(pipeline: Pipeline | None = None) -> ExperimentResult:
    """Regenerate Table 5."""
    pipeline = default_pipeline(pipeline)
    targets = list(pipeline.preset.target_concepts)
    cleaner = pipeline.dp_cleaner()
    overall, result, truth, extraction, before = run_cleaner(
        pipeline, cleaner, targets
    )
    checks = [
        check
        for stats in result.details["rounds"]
        for check in stats.sentence_checks
    ]
    after = {c: extraction.kb.instances_of(c) for c in before}
    rows = []
    data: dict[str, dict[str, float]] = {}
    for concept in targets:
        p_stc, r_stc = sentence_check_metrics(
            extraction.corpus, checks, [concept]
        )
        metrics = cleaning_metrics(truth, before, after, [concept])
        rows.append((
            concept, round(p_stc, 3), round(r_stc, 3),
            round(metrics.p_error, 3), round(metrics.r_error, 3),
            round(metrics.p_corr, 3), round(metrics.r_corr, 3),
        ))
        data[concept] = {
            "p_stc": p_stc, "r_stc": r_stc,
            "p_error": metrics.p_error, "r_error": metrics.r_error,
            "p_corr": metrics.p_corr, "r_corr": metrics.r_corr,
        }
    p_stc_all, r_stc_all = sentence_check_metrics(
        extraction.corpus, checks, targets
    )
    rows.append((
        "Overall", round(p_stc_all, 3), round(r_stc_all, 3),
        round(overall.p_error, 3), round(overall.r_error, 3),
        round(overall.p_corr, 3), round(overall.r_corr, 3),
    ))
    data["Overall"] = {
        "p_stc": p_stc_all, "r_stc": r_stc_all,
        "p_error": overall.p_error, "r_error": overall.r_error,
        "p_corr": overall.p_corr, "r_corr": overall.r_corr,
    }
    return ExperimentResult(
        name="table5",
        title="Table 5: DP cleaning evaluated per concept",
        text=format_table(_HEADERS, rows),
        data=data,
    )
