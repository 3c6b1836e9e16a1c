"""The four DP features of §3.1.

For an instance ``e`` under concept ``C``:

* ``f1`` — similarity between the frequency distribution of the
  sub-instances ``e`` triggered and the distribution of ``C``'s
  iteration-1 core (Property 1: DPs trigger instances that look unlike
  the class).  Eq. 1 uses a cosine, which at web scale is dominated by
  how much of the triggered mass falls on the class's frequent
  instances; with our much sparser sub-instance sets the cosine instead
  tracks trigger *volume*, so we compute the direct measure of the same
  quantity — the fraction of triggered occurrences landing on core
  instances (Eq. 1 verbatim lives on as a reference in
  ``tests/cleaning/per_instance.py``);
* ``f2`` — number of concepts mutually exclusive with ``C`` that also
  extracted ``e`` (Property 2: polysemous instances span exclusive
  classes);
* ``f3`` — the instance's random-walk score (Property 3: accidental DPs
  rest on weak evidence);
* ``f4`` — mean random-walk score of the sub-instances ``e`` triggered
  (Property 4: errors triggered by DPs rest on weak evidence).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..concepts.exclusion import MutualExclusionIndex
from ..kb.store import KnowledgeBase
from .matrix import ConceptMatrix

__all__ = ["FeatureVector", "FeatureExtractor", "FEATURE_NAMES"]

FEATURE_NAMES = ("f1", "f2", "f3", "f4")

_LOW = 0xFFFFFFFF


@dataclass(frozen=True)
class FeatureVector:
    """The four features for one (concept, instance)."""

    concept: str
    instance: str
    f1: float
    f2: float
    f3: float
    f4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The features in canonical order."""
        return (self.f1, self.f2, self.f3, self.f4)


class FeatureExtractor:
    """Computes DP features from a knowledge base and its indexes.

    Parameters
    ----------
    kb:
        The post-extraction knowledge base.
    exclusion:
        Mutual-exclusion index over the same KB.
    scores:
        Per-concept random-walk scores, as produced by
        :meth:`repro.ranking.RandomWalkRanker.score_all`.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        exclusion: MutualExclusionIndex,
        scores: Mapping[str, Mapping[str, float]],
    ) -> None:
        self._kb = kb
        self._exclusion = exclusion
        self._scores = scores

    def extract(self, concept: str, instance: str) -> FeatureVector:
        """The features of one alive instance under one concept."""
        matrix = self.feature_matrices([concept])[concept]
        row = matrix.x[matrix.row_of(instance)].tolist()
        return FeatureVector(concept, instance, *row)

    def feature_matrices(
        self, concepts: Sequence[str]
    ) -> dict[str, ConceptMatrix]:
        """Every feature of every alive instance of ``concepts``.

        One pass over all the concepts' instance ids laid end to end (the
        :class:`~repro.concepts.exclusion.ExclusiveMemberships` query
        space).  Rows are each concept's alive instances in sorted order.
        ``np.bincount`` accumulates its weights in input order from
        ``0.0``, so f4's sum over a trigger's distinct sub-instances runs
        left to right in ascending id order, exactly as a pass over one
        concept adds it: every matrix is bit-identical whichever concepts
        share the pass.
        """
        concepts = list(dict.fromkeys(concepts))
        kb = self._kb
        joined = self._exclusion.exclusive_memberships(kb, concepts)
        size = joined.query_size
        # f2: exclusive concepts that also hold the instance.
        f2 = np.bincount(joined.query, minlength=size).astype(float)
        score = np.zeros(size)
        on_core = np.zeros(size)
        rows = []
        for concept in concepts:
            offset = joined.query_offsets[concept]
            state = kb.concept_state(concept)
            ids = state.ids + offset
            rows.append(ids)
            values = self._scores.get(concept, {})
            score[ids] = np.fromiter(
                map(values.get, state.names, repeat(0.0)),
                dtype=float,
                count=len(ids),
            )
            # Core instances: first extracted in iteration 1 and with
            # iteration-1 evidence left.
            on_core[offset : offset + len(state.alive)] = (
                state.alive
                & (state.first_iteration == 1)
                & (state.core_count > 0)
            )
        codes = kb.active_edges(concepts, joined.query_offsets)
        sources = codes >> 32
        # f1: occurrence counts, split by core membership of the triggered
        # sub-instance.
        total = np.bincount(sources, minlength=size).astype(float)
        core_hits = np.bincount(
            sources, weights=on_core[codes & _LOW], minlength=size
        )
        # f4 averages over *distinct* sub-instances per trigger.  (Sorting
        # and masking repeats is np.unique(codes), whose hashing path is
        # several times slower here.)
        codes.sort()
        first = np.ones(len(codes), dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        codes = codes[first]
        sources = codes >> 32
        distinct = np.bincount(sources, minlength=size).astype(float)
        score_sum = np.bincount(
            sources, weights=score[codes & _LOW], minlength=size
        )
        rows = np.concatenate([np.zeros(0, np.int64)] + rows)
        x = np.zeros((len(rows), 4), dtype=float)
        row_total = total[rows]
        nonzero = row_total > 0
        x[nonzero, 0] = core_hits[rows][nonzero] / row_total[nonzero]
        x[:, 1] = f2[rows]
        x[:, 2] = score[rows]
        row_distinct = distinct[rows]
        nonzero = row_distinct > 0
        x[nonzero, 3] = score_sum[rows][nonzero] / row_distinct[nonzero]
        matrices: dict[str, ConceptMatrix] = {}
        start = 0
        for concept in concepts:
            names = kb.concept_state(concept).names
            stop = start + len(names)
            matrices[concept] = ConceptMatrix(concept, names, x[start:stop])
            start = stop
        return matrices
