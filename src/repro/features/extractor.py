"""The four DP features of §3.1.

For an instance ``e`` under concept ``C``:

* ``f1`` — similarity between the frequency distribution of the
  sub-instances ``e`` triggered and the distribution of ``C``'s
  iteration-1 core (Property 1: DPs trigger instances that look unlike
  the class).  Eq. 1 uses a cosine, which at web scale is dominated by
  how much of the triggered mass falls on the class's frequent
  instances; with our much sparser sub-instance sets the cosine instead
  tracks trigger *volume*, so the default formulation is the direct
  measure of the same quantity — the fraction of triggered occurrences
  landing on core instances (``mode="core_mass"``; ``mode="cosine"`` is
  Eq. 1 verbatim);
* ``f2`` — number of concepts mutually exclusive with ``C`` that also
  extracted ``e`` (Property 2: polysemous instances span exclusive
  classes);
* ``f3`` — the instance's random-walk score (Property 3: accidental DPs
  rest on weak evidence);
* ``f4`` — mean random-walk score of the sub-instances ``e`` triggered
  (Property 4: errors triggered by DPs rest on weak evidence).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from ..concepts.exclusion import MutualExclusionIndex
from ..kb.store import KnowledgeBase
from .distribution import cosine_counts

__all__ = ["FeatureVector", "FeatureExtractor", "FEATURE_NAMES"]

FEATURE_NAMES = ("f1", "f2", "f3", "f4")


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
        f1_mode: str = "core_mass",
    ) -> None:
        if f1_mode not in ("core_mass", "cosine"):
            raise ValueError(f"unknown f1_mode: {f1_mode!r}")
        self._kb = kb
        self._exclusion = exclusion
        self._scores = scores
        self._f1_mode = f1_mode
        self._core_freq: dict[str, dict[str, int]] = {}

    def extract(self, concept: str, instance: str) -> FeatureVector:
        """Compute the features of one instance under one concept."""
        return self._extract(
            concept,
            instance,
            self._core_frequency(concept),
            self._scores.get(concept, {}),
        )

    def _extract(
        self,
        concept: str,
        instance: str,
        core: Mapping[str, int],
        scores: Mapping[str, float],
    ) -> FeatureVector:
        subs = self._kb.sub_instance_counts(concept, instance)
        get_score = scores.get
        if subs:
            # One pass over the triggered sub-instances collects the core
            # mass (f1) and the score sum (f4) together.
            total = 0
            on_core = 0
            score_sum = 0.0
            for name, count in subs.items():
                total += count
                if name in core:
                    on_core += count
                score_sum += get_score(name, 0.0)
            f4 = score_sum / len(subs)
            if self._f1_mode == "cosine":
                f1 = cosine_counts(subs, core)
            else:
                f1 = on_core / total if total else 0.0
        else:
            f1 = 0.0
            f4 = 0.0
        f2 = float(
            self._exclusion.count_exclusive_containing(
                self._kb, concept, instance
            )
        )
        f3 = float(get_score(instance, 0.0))
        return FeatureVector(
            concept=concept, instance=instance, f1=f1, f2=f2, f3=f3, f4=f4
        )

    def feature_matrix(
        self, concept: str
    ) -> tuple[tuple[str, ...], np.ndarray]:
        """All features of a concept as ``(sorted instances, (n, 4) array)``.

        The trigger/sub-instance aggregation (f1, f4) runs as array work
        over the KB's append-only edge-code substrate instead of the
        per-instance record walk — the dominant cost of building all
        concept matrices per detection refit.  ``f2`` stays a Python loop
        (it is a handful of memoised exclusivity lookups per instance)
        and the Eq. 1 cosine mode falls back to the per-instance path.
        """
        names = self._kb.sorted_instances(concept)
        if not names:
            return names, np.zeros((0, 4), dtype=float)
        if self._f1_mode == "cosine":
            vectors = [
                self._extract(
                    concept,
                    instance,
                    self._core_frequency(concept),
                    self._scores.get(concept, {}),
                )
                for instance in names
            ]
            return names, np.array(
                [v.as_tuple() for v in vectors], dtype=float
            )
        kb = self._kb
        scores = self._scores.get(concept, {})
        core = self._core_frequency(concept)
        ids = kb.instance_id_map(concept)
        num_ids = len(ids)
        # Per-id score and core-membership tables (ids cover removed
        # instances too; their rows are simply never read back).
        score_by_id = np.zeros(num_ids)
        core_mask = np.zeros(num_ids)
        for name, i in ids.items():
            value = scores.get(name)
            if value:
                score_by_id[i] = value
            if name in core:
                core_mask[i] = 1.0
        codes, rids = kb.edge_occurrences(concept)
        total = np.zeros(num_ids)
        on_core = np.zeros(num_ids)
        distinct = np.zeros(num_ids)
        score_sum = np.zeros(num_ids)
        if codes:
            codes_arr = np.asarray(codes, dtype=np.int64)
            rids_arr = np.asarray(rids, dtype=np.int64)
            active = np.frombuffer(kb.record_active_flags(), dtype=bool)
            codes_arr = codes_arr[active[rids_arr]]
            if codes_arr.size:
                sources = codes_arr >> 32
                targets = codes_arr & 0xFFFFFFFF
                # f1: occurrence counts, split by core membership of the
                # triggered sub-instance.
                total = np.bincount(sources, minlength=num_ids).astype(float)
                on_core = np.bincount(
                    sources, weights=core_mask[targets], minlength=num_ids
                )
                # f4 averages over *distinct* sub-instances per trigger.
                uniq = np.unique(codes_arr)
                u_sources = uniq >> 32
                distinct = np.bincount(
                    u_sources, minlength=num_ids
                ).astype(float)
                score_sum = np.bincount(
                    u_sources,
                    weights=score_by_id[uniq & 0xFFFFFFFF],
                    minlength=num_ids,
                )
        rows = np.fromiter(
            (ids[name] for name in names), dtype=np.int64, count=len(names)
        )
        x = np.zeros((len(names), 4), dtype=float)
        row_total = total[rows]
        nonzero = row_total > 0
        x[nonzero, 0] = on_core[rows][nonzero] / row_total[nonzero]
        # f2 inverted: instead of walking each instance's claimant concepts
        # (a python loop per instance × claimant), intersect the concept's
        # instance set with each exclusive partner's at C speed.  The
        # candidate partners are exactly the concepts sharing an instance,
        # so the same exclusivity verdicts are consulted either way.
        f2 = x[:, 1]
        row_of = {name: i for i, name in enumerate(names)}
        names_view = row_of.keys()
        exclusive = self._exclusion.exclusive
        for other in kb.concepts_sharing(names):
            if other == concept or not exclusive(concept, other):
                continue
            for name in names_view & kb.instance_view(other):
                f2[row_of[name]] += 1.0
        x[:, 2] = score_by_id[rows]
        row_distinct = distinct[rows]
        nonzero = row_distinct > 0
        x[nonzero, 3] = score_sum[rows][nonzero] / row_distinct[nonzero]
        return names, x

    def _core_frequency(self, concept: str) -> dict[str, int]:
        cached = self._core_freq.get(concept)
        if cached is None:
            cached = self._kb.core_frequency_distribution(concept)
            self._core_freq[concept] = cached
        return cached
