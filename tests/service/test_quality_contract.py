"""Multi-batch sessions clean about as well as one-shot cleaning.

A default-policy session (``IngestPolicy()``: drift passes of one round,
staleness passes to the fixed point) over the service-scale world —
``paper_world(scale=0.5)`` with 1,500 sentences — must end with a
``p_corr`` and an ``r_corr`` no worse than the one-shot run's
(``Pipeline.extract()`` + ``Pipeline.dp_cleaner().clean()``) minus ε, on
every seed × batch size of the grid below.  At 1,500 sentences the
staleness trigger never fires, so every pass on the grid is a one-round
drift pass.  A session is scored the way the benchmark scores it:
*before* is every pair it ever extracted (alive or removed), *after* the
pairs alive at the end.

Choice of ε.  Over seeds 3, 5, 7, 11 and 20140324 × batch sizes 150, 300
and 500, sessions that converge every pass trailed the one-shot run by
at most 0.0391 on ``p_corr`` (seed 5, batch 150) and 0.0172 on
``r_corr`` (seed 11, batch 150); with one round per drift pass the worst
gaps were 0.0416 (seed 5, batch 150) and 0.0172.  ε is those worst
gaps rounded up, with room for about 0.008 of seed-to-seed noise:
``P_EPSILON = 0.05`` and ``R_EPSILON = 0.02``.  A session that
re-checks only the sentences new since its last pass (instead of every
sentence a DP triggered) is caught: its ``p_corr`` trails by 0.054
(seed 3, batch 500), 0.080 (seed 5, batch 150) and 0.060 (seed 5,
batch 500).
"""

from __future__ import annotations

import pytest

from repro.evaluation.ground_truth import GroundTruth
from repro.evaluation.metrics import cleaning_metrics
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.service import IngestPolicy
from repro.world.presets import paper_world

from .conftest import SCALE, SENTENCES

SEEDS = (3, 5, 20140324)
BATCH_SIZES = (150, 500)
P_EPSILON = 0.05
R_EPSILON = 0.02


def _quality(pipeline: Pipeline, kb, before) -> tuple[float, float]:
    """(p_corr, r_corr) of ``kb`` against the pairs in ``before``."""
    metrics = cleaning_metrics(
        GroundTruth(pipeline.preset.world, kb),
        before,
        {concept: kb.instances_of(concept) for concept in before},
        pipeline.preset.target_concepts,
    )
    return metrics.p_corr, metrics.r_corr


@pytest.fixture(scope="module")
def pipelines():
    """seed → (its pipeline, the one-shot (p_corr, r_corr))."""
    built = {}
    for seed in SEEDS:
        preset = paper_world(seed=seed, scale=SCALE)
        config = experiment_config(
            num_sentences=SENTENCES, seed=seed, profiles=preset.profiles
        )
        pipeline = Pipeline(preset=preset, config=config)
        extraction = pipeline.extract()
        kb = extraction.kb
        before = {
            concept: kb.instances_of(concept) for concept in kb.concepts()
        }
        pipeline.dp_cleaner().clean(kb, extraction.corpus)
        built[seed] = pipeline, _quality(pipeline, kb, before)
    return built


def _session_quality(pipeline: Pipeline, batch_size: int):
    session = pipeline.session(policy=IngestPolicy())
    for batch in pipeline.corpus().batches(batch_size):
        session.ingest(batch)
    kb = session.kb
    before = {
        concept: set(kb.instances_of(concept)) for concept in kb.concepts()
    }
    for pair in kb.removed_pairs():
        before.setdefault(pair.concept, set()).add(pair.instance)
    return session, _quality(
        pipeline,
        kb,
        {concept: frozenset(names) for concept, names in before.items()},
    )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_session_quality_within_epsilon_of_one_shot(
    pipelines, seed, batch_size
):
    pipeline, (one_p, one_r) = pipelines[seed]
    session, (p_corr, r_corr) = _session_quality(pipeline, batch_size)
    assert session.cleanings >= 1  # the contract is about cleaned sessions
    assert p_corr >= one_p - P_EPSILON, (p_corr, one_p)
    assert r_corr >= one_r - R_EPSILON, (r_corr, one_r)
