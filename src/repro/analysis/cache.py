"""The analysis substrate the DP cleaner's detection refits are built from.

One :class:`AnalysisCache` serves many knowledge bases.  Its only state
is one :class:`~repro.concepts.exclusion.MutualExclusionIndex` per KB,
held by weak reference and refreshed in place, so the index detection
refreshes is the one the cleaner's guards and the session's drift
telemetry query.  Feature matrices, verified samples and seed labels
are rebuilt on every call: caching them did not pay (DESIGN.md,
"The analysis cache and its invalidation graph").  The reuse that does —
KPCA transforms and manifold regularisers of unchanged matrices — is the
detection callback's :class:`~repro.learning.DetectorRefitCache`.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterable

from ..concepts.exclusion import MutualExclusionIndex
from ..config import SimilarityConfig
from ..features.extractor import FeatureExtractor
from ..features.matrix import ConceptMatrix
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase
from ..labeling.evidence import EvidenceIndex
from ..labeling.rules import SeedLabeler, SeedLabelSet
from ..runtime.context import NULL_CONTEXT, RunContext

__all__ = ["AnalysisCache"]


class AnalysisCache:
    """The per-KB exclusion index plus the builders of the detector's inputs.

    The cleaner's detection callback and the cleaner itself share one
    instance, passed to :class:`~repro.cleaning.DPCleaner` as
    ``analysis=`` (like they already share the ranker), so the exclusion
    index built for detection is the one the cleaner's guards query.
    """

    def __init__(
        self,
        similarity: SimilarityConfig | None = None,
        context: RunContext | None = None,
    ) -> None:
        self._similarity = similarity or SimilarityConfig()
        # Instrumentation only (build/refresh counters); the context never
        # influences what the cache returns.
        self._ctx = context or NULL_CONTEXT
        self._exclusions: weakref.WeakKeyDictionary[
            KnowledgeBase, MutualExclusionIndex
        ] = weakref.WeakKeyDictionary()

    def exclusion(self, kb: KnowledgeBase) -> MutualExclusionIndex:
        """The (incrementally refreshed) exclusion index for ``kb``."""
        index = self._exclusions.get(kb)
        if index is None:
            index = MutualExclusionIndex(kb, self._similarity)
            self._exclusions[kb] = index
            self._ctx.count("analysis.exclusion.build")
        else:
            index.refresh()
            self._ctx.count("analysis.exclusion.refresh")
        return index

    def matrices(
        self,
        kb: KnowledgeBase,
        concepts: Iterable[str],
        features: FeatureExtractor,
    ) -> dict[str, ConceptMatrix]:
        """One feature matrix per concept, built by ``features``."""
        return features.feature_matrices(list(concepts))

    def verified(
        self,
        kb: KnowledgeBase,
        concepts: Iterable[str],
        sampler: Callable[[KnowledgeBase, str], frozenset[IsAPair]],
    ) -> frozenset[IsAPair]:
        """Union of the per-concept verified samples ``sampler`` draws."""
        union: set[IsAPair] = set()
        for concept in concepts:
            union |= sampler(kb, concept)
        return frozenset(union)

    def seeds(
        self,
        kb: KnowledgeBase,
        concepts: Iterable[str],
        evidence: EvidenceIndex,
    ) -> SeedLabelSet:
        """Seed labels of ``concepts`` under the three labelling rules."""
        labeler = SeedLabeler(kb, self._exclusions[kb], evidence)
        return labeler.label_all(list(concepts))
