"""Shared fixtures for the streaming-service tests.

One small pipeline configuration used everywhere, so the batch reference
run and the streaming/crash-resume runs are always comparable.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.pipeline import Pipeline, experiment_config
from repro.service import IngestPolicy
from repro.world.presets import paper_world


SCALE = 0.5
SENTENCES = 1500
SEED = 20140324
#: Cleans after every batch, each pass to the fixed point (a staleness
#: threshold of 0 and no drift trigger): batch-mode equivalence.
EVERY_BATCH = IngestPolicy(staleness_threshold=0, drift_threshold=None)


def make_pipeline() -> Pipeline:
    """A fresh small pipeline (independent caches, identical corpus)."""
    preset = paper_world(seed=SEED, scale=SCALE)
    config = experiment_config(
        num_sentences=SENTENCES, seed=SEED, profiles=preset.profiles
    )
    return Pipeline(preset=preset, config=config)


def truncate_last_entry(journal_path: Path) -> bool:
    """Remove a journal's final committed entry, as a torn write would.

    Returns ``True`` when an entry was removed.  The crash drills use it
    to simulate a batch whose journal append never reached the disk.
    """
    if not journal_path.exists():
        return False
    lines = [
        line
        for line in journal_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not lines:
        return False
    journal_path.write_text(
        "".join(line + "\n" for line in lines[:-1]), encoding="utf-8"
    )
    return True


def drift_totals(session) -> dict[str, list[int]]:
    """Cumulative per-concept [new pairs, conflicted] over a session's
    reports.

    Each batch's concepts fold in sorted order, so live and resumed
    sessions build totals with the same key order.
    """
    totals: dict[str, list[int]] = {}
    for report in session.reports:
        for concept, (new, conflicted) in sorted(
            report.drift.per_concept.items()
        ):
            counts = totals.setdefault(concept, [0, 0])
            counts[0] += new
            counts[1] += conflicted
    return totals


@pytest.fixture(scope="session")
def service_corpus():
    return make_pipeline().corpus()
