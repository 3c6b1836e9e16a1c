"""Frequency-distribution vectors."""

from __future__ import annotations

from collections.abc import Mapping

__all__ = ["normalize_counts"]


def normalize_counts(counts: Mapping[str, float]) -> dict[str, float]:
    """Scale counts to sum to one (empty input stays empty)."""
    total = float(sum(counts.values()))
    if total <= 0:
        return {}
    return {key: value / total for key, value in counts.items()}
