"""Transform and manifold reuse across detector refits is keyed on content.

A :class:`DetectorRefitCache` serves every refit under the one frozen
embedding it holds.  The matrices each refit receives are new objects,
so a transform is reused when the new matrix has the same instances and
equal features, and a manifold regulariser when its transform was
reused.  A reused fit must be bit-identical to one that recomputes
everything.
"""

from __future__ import annotations

import numpy as np

from repro.features.matrix import ConceptMatrix
from repro.labeling import DPLabel, SeedLabel
from repro.labeling.rules import SeedLabelSet
from repro.learning import DetectorRefitCache, DPDetector
from repro.runtime.context import RunContext

_CONCEPTS = ("c0", "c1", "c2")
_LABELS = (DPLabel.NON_DP, DPLabel.ACCIDENTAL, DPLabel.INTENTIONAL)


def _matrices():
    rng = np.random.default_rng(7)
    return {
        concept: ConceptMatrix(
            concept=concept,
            instances=tuple(f"{concept}_{i}" for i in range(24)),
            x=rng.uniform(0.0, 1.0, size=(24, 4)),
        )
        for concept in _CONCEPTS
    }


def _seeds():
    seeds = SeedLabelSet()
    for concept in _CONCEPTS:
        for i in range(0, 24, 3):
            seeds.add(SeedLabel(concept, f"{concept}_{i}", _LABELS[i % 3]))
    return seeds


def _copies(matrices):
    """New matrix objects with the same content."""
    return {
        concept: ConceptMatrix(
            concept=concept, instances=tuple(m.instances), x=m.x.copy()
        )
        for concept, m in matrices.items()
    }


def _fit(matrices, embedding=None, refit_cache=None):
    """Fit on ``matrices``; return the detector and its reuse counters.

    Without a ``refit_cache`` it fits under a fresh cache that holds only
    ``embedding`` (fitting its own when that is ``None``).
    """
    if refit_cache is None:
        refit_cache = DetectorRefitCache()
        refit_cache.embedding = embedding
    context = RunContext()
    tracer = context.ensure_tracer()
    detector = DPDetector(seed=0, context=context).fit(
        matrices, _seeds(), refit_cache=refit_cache
    )
    counters: dict[str, int] = {}
    for span in tracer.spans():
        for name, n in span.counters.items():
            counters[name] = counters.get(name, 0) + n
    return detector, counters


class TestContentKeyedReuse:
    def _warm(self):
        cache = DetectorRefitCache()
        _fit(_matrices(), refit_cache=cache)
        return cache.embedding, cache

    def test_equal_content_reuses_every_transform_and_manifold(self):
        embedding, cache = self._warm()
        matrices = _copies(_matrices())
        cached, counters = _fit(matrices, embedding, cache)
        assert counters["transforms_reused"] == len(_CONCEPTS)
        assert counters["transforms_computed"] == 0
        assert counters["manifolds_reused"] == len(_CONCEPTS)
        assert counters["manifolds_computed"] == 0
        fresh, counters = _fit(_copies(matrices), embedding)
        assert counters["transforms_reused"] == 0
        assert cached.predict_all() == fresh.predict_all()
        assert cached.objective_history == fresh.objective_history

    def test_changed_feature_value_recomputes_its_concept(self):
        embedding, cache = self._warm()
        matrices = _copies(_matrices())
        matrices["c1"].x[5, 2] += 1e-9
        _, counters = _fit(matrices, embedding, cache)
        assert counters["transforms_reused"] == len(_CONCEPTS) - 1
        assert counters["transforms_computed"] == 1
        assert counters["manifolds_reused"] == len(_CONCEPTS) - 1
        assert counters["manifolds_computed"] == 1

    def test_reordered_instances_recompute_their_concept(self):
        embedding, cache = self._warm()
        matrices = _copies(_matrices())
        order = np.arange(24)[::-1]
        old = matrices["c2"]
        matrices["c2"] = ConceptMatrix(
            concept="c2",
            instances=tuple(old.instances[i] for i in order),
            x=old.x[order],
        )
        _, counters = _fit(matrices, embedding, cache)
        assert counters["transforms_reused"] == len(_CONCEPTS) - 1
        assert counters["transforms_computed"] == 1
        assert counters["manifolds_computed"] == 1
