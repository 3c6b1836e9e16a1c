"""The experiment runners keep two KBs alive while the DP row cleans.

A fresh pipeline holds its private extraction; the DP row cleans a copy
of it.  Nothing else should be alive at that point: not the RW-Rank
sweep's KB in ``run_threshold_sweep``, and not the analysis copy behind
``pipeline.analyze(fit_detector=False)`` in ``run_table3``.  Each test
counts the ``KnowledgeBase`` objects created during the run that are
still in memory when ``DPCleaner.clean`` starts.
"""

from __future__ import annotations

import gc

import pytest

from repro.cleaning import DPCleaner
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.experiments.table3 import run_table3
from repro.experiments.threshold_sweep import run_threshold_sweep
from repro.kb import KnowledgeBase
from repro.world import paper_world


def _kbs() -> list[KnowledgeBase]:
    return [obj for obj in gc.get_objects() if isinstance(obj, KnowledgeBase)]


@pytest.fixture
def kbs_at_dp_clean(monkeypatch):
    """Run a runner on a fresh pipeline; the new KBs alive per DP clean."""
    counts: list[int] = []
    original = DPCleaner.clean

    def counting(self, kb, corpus, *args, **kwargs):
        counts.append(sum(id(obj) not in before for obj in _kbs()))
        return original(self, kb, corpus, *args, **kwargs)

    monkeypatch.setattr(DPCleaner, "clean", counting)
    gc.collect()
    # Held, so no id in the set can be reused by a KB of the run.
    existing = _kbs()
    before = {id(obj) for obj in existing}

    def run(runner):
        preset = paper_world(seed=3, scale=0.5)
        config = experiment_config(
            num_sentences=1500, seed=3, profiles=preset.profiles
        )
        runner(Pipeline(preset=preset, config=config))
        return counts

    return run


def test_threshold_sweep_frees_the_sweep_kb(kbs_at_dp_clean):
    assert kbs_at_dp_clean(run_threshold_sweep) == [2]


def test_table3_frees_the_analysis_copy(kbs_at_dp_clean):
    assert kbs_at_dp_clean(run_table3) == [2]
