"""Evaluation metrics for cleaning, detection, ranking and Eq. 21 checks.

The cleaning dimensions follow §5.3 exactly:

* ``p_error`` — removed errors / all removed instances;
* ``r_error`` — removed errors / all errors present before cleaning;
* ``p_corr`` — remaining correct / all remaining instances;
* ``r_corr`` — remaining correct / all correct present before cleaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from ..corpus.corpus import Corpus
from ..labeling.labels import DPLabel
from .ground_truth import GroundTruth

__all__ = [
    "CleaningMetrics",
    "DetectionMetrics",
    "cleaning_metrics",
    "detection_metrics",
    "precision_at_k",
    "sentence_check_metrics",
]


@dataclass(frozen=True)
class CleaningMetrics:
    """The four §5.3 cleaning dimensions (micro-averaged)."""

    p_error: float
    r_error: float
    p_corr: float
    r_corr: float
    removed: int
    remaining: int


@dataclass(frozen=True)
class DetectionMetrics:
    """Binary DP-detection quality plus 3-class accuracy."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    support: int


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def cleaning_metrics(
    truth: GroundTruth,
    before: Mapping[str, frozenset[str]],
    after: Mapping[str, frozenset[str]],
    concepts: Iterable[str] | None = None,
) -> CleaningMetrics:
    """Score a cleaning run from before/after per-concept instance sets."""
    names = list(concepts) if concepts is not None else sorted(before)
    removed_total = removed_errors = 0
    remaining_total = remaining_correct = 0
    errors_before = correct_before = 0
    for concept in names:
        old = before.get(concept, frozenset())
        new = after.get(concept, frozenset())
        for instance in old:
            is_error = truth.is_error(concept, instance)
            errors_before += is_error
            correct_before += not is_error
            if instance not in new:
                removed_total += 1
                removed_errors += is_error
        for instance in new:
            remaining_total += 1
            remaining_correct += truth.is_correct(concept, instance)
    return CleaningMetrics(
        p_error=_safe_div(removed_errors, removed_total),
        r_error=_safe_div(removed_errors, errors_before),
        p_corr=_safe_div(remaining_correct, remaining_total),
        r_corr=_safe_div(remaining_correct, correct_before),
        removed=removed_total,
        remaining=remaining_total,
    )


def detection_metrics(
    truth: GroundTruth,
    predictions: Mapping[str, Mapping[str, DPLabel]],
    concepts: Iterable[str] | None = None,
) -> DetectionMetrics:
    """Score DP detection against ground-truth DP labels.

    Instances without a DP class (leaf errors, typos) are excluded — they
    are neither DPs nor clean non-DPs.
    """
    names = list(concepts) if concepts is not None else sorted(predictions)
    tp = fp = fn = correct = total = 0
    for concept in names:
        for instance, predicted in predictions.get(concept, {}).items():
            actual = truth.dp_label(concept, instance)
            if actual is None:
                continue
            total += 1
            correct += predicted is actual
            if predicted.is_dp and actual.is_dp:
                tp += 1
            elif predicted.is_dp:
                fp += 1
            elif actual.is_dp:
                fn += 1
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return DetectionMetrics(
        precision=precision,
        recall=recall,
        f1=_safe_div(2 * precision * recall, precision + recall),
        accuracy=_safe_div(correct, total),
        support=total,
    )


def precision_at_k(
    truth: GroundTruth,
    scores: Mapping[str, Mapping[str, float]],
    k: int,
    concepts: Iterable[str] | None = None,
) -> float:
    """Average precision of each concept's top-``k`` ranked instances.

    Concepts with fewer than ``k`` instances contribute their full ranking
    (the paper's p@100/1000/2000 over concepts of very different sizes).
    Ties fall by instance name, whatever order the ranker's dict has.
    """
    names = list(concepts) if concepts is not None else sorted(scores)
    per_concept = []
    for concept in names:
        ranked = sorted(
            scores.get(concept, {}).items(),
            key=lambda item: (-item[1], item[0]),
        )[:k]
        if not ranked:
            continue
        good = sum(
            1 for instance, _ in ranked if truth.is_correct(concept, instance)
        )
        per_concept.append(good / len(ranked))
    return _safe_div(sum(per_concept), len(per_concept))


def sentence_check_metrics(
    corpus: Corpus,
    checks: Iterable,
    concepts: Iterable[str] | None = None,
) -> tuple[float, float]:
    """``(p_stc, r_stc)`` for Eq. 21 sentence checks (Table 5 cols 2–3).

    A check is *truly* bad when the sentence's generation truth disagrees
    with the concept the extractor committed to.
    """
    wanted = set(concepts) if concepts is not None else None
    by_sid = corpus.by_sid()
    tp = fp = fn = 0
    for check in checks:
        if wanted is not None and check.chosen_concept not in wanted:
            continue
        sentence = by_sid.get(check.sid)
        if sentence is None or sentence.truth is None:
            continue
        actually_bad = sentence.truth.concept != check.chosen_concept
        if check.is_drifting and actually_bad:
            tp += 1
        elif check.is_drifting:
            fp += 1
        elif actually_bad:
            fn += 1
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return precision, recall
