"""The analysis cache: per-concept reuse across detection refits.

PR 1 made *ranking* incremental by keying per-concept scores on the KB's
mutation version counters.  This module extends the same discipline
through every other layer the DP cleaner's detection callback rebuilds
each round — exclusion index, feature matrices, verified samples,
evidenced-correct sets, seed labels, and (via
:class:`~repro.learning.DetectorRefitCache`) KPCA transforms and manifold
regularisers — so round *k*+1 recomputes only what round *k*'s rollbacks
invalidated.

Correctness discipline
----------------------
Every cached artefact is a deterministic function of the state named by
its key, so a cache hit returns the *identical object* a recomputation
would produce (bit-identical arrays).  The keys:

* **exclusion index** — refreshed in place through
  :meth:`MutualExclusionIndex.refresh`, whose property tests pin
  refresh == rebuild.
* **concept matrix of C** — a *dependency signature*: the sorted tuple of
  ``(D, kb.concept_version(D), exclusion.relations_version(D))`` over C
  and every concept sharing an instance with C.  The cross-concept edge
  exists because feature ``f2`` counts exclusive concepts containing each
  instance: a rollback under D can change C's features without touching C
  itself, so invalidation flows through the KB's instance → concepts
  reverse index (:meth:`KnowledgeBase.concepts_sharing`).
* **verified sample / evidenced-correct set of C** — ``concept_version(C)``
  (the supplied sampler must be a pure function of the KB's per-concept
  state, which the pipeline's per-concept RNG substreams guarantee).
* **seed labels of C** — the matrix signature, widened with the concepts
  claiming the *sub-instances of C's evidenced-correct instances* (the
  only subs the rules walk; RULE 1 consults the exclusive concepts of
  each, and subs need not be alive under C).  The sub-instance set itself
  is a pure function of ``concept_version(C)``, so it is stored with the
  entry and only its claimants are re-versioned on lookup — the expensive
  sub walk happens solely on misses, which relabel anyway.

One :class:`AnalysisCache` serves many knowledge bases (a pipeline hands
out one KB per cleaner); state is keyed per KB by weak reference, like the
ranker's score cache.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterable

import numpy as np

from ..concepts.exclusion import MutualExclusionIndex
from ..config import LabelingConfig, SimilarityConfig
from ..features.extractor import FeatureExtractor
from ..features.matrix import ConceptMatrix
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase
from ..labeling.evidence import EvidenceIndex
from ..labeling.rules import SeedLabeler, SeedLabelSet
from ..labeling.labels import SeedLabel
from ..learning.detector import DetectorRefitCache
from ..runtime.context import NULL_CONTEXT, RunContext

__all__ = ["AnalysisCache"]

#: ((concept, kb version, relations version), ...) — sorted by concept.
Signature = tuple[tuple[str, int, int], ...]


class _KBState:
    """Cached analysis state for one knowledge base."""

    __slots__ = ("exclusion", "matrices", "verified", "correct", "seeds",
                 "refit", "signatures")

    def __init__(self) -> None:
        self.exclusion: MutualExclusionIndex | None = None
        self.matrices: dict[str, tuple[Signature, ConceptMatrix]] = {}
        #: ((kb version, exclusion epoch), {concept: signature}) — both
        #: counters are constant within one refit, so matrices() and
        #: seeds() share one signature computation per concept per round.
        self.signatures: tuple[tuple[int, int], dict[str, Signature]] | None = (
            None
        )
        self.verified: dict[str, tuple[int, frozenset[IsAPair]]] = {}
        self.correct: dict[str, tuple[int, frozenset[str]]] = {}
        #: concept → (base signature, sub-instances of evidenced-correct
        #: instances, signature of the subs' claimant concepts, labels).
        self.seeds: dict[
            str, tuple[Signature, frozenset[str], Signature, list[SeedLabel]]
        ] = {}
        self.refit = DetectorRefitCache()


class AnalysisCache:
    """Per-concept, version-keyed caching for the detection-refit pipeline.

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
        # Instrumentation only (hit/miss/refresh counters per cache
        # family); the context never influences what the cache returns.
        self._ctx = context or NULL_CONTEXT
        self._states: weakref.WeakKeyDictionary[KnowledgeBase, _KBState] = (
            weakref.WeakKeyDictionary()
        )

    def _state(self, kb: KnowledgeBase) -> _KBState:
        state = self._states.get(kb)
        if state is None:
            state = _KBState()
            self._states[kb] = state
        return state

    # ------------------------------------------------------------------
    # Exclusion
    # ------------------------------------------------------------------
    def exclusion(self, kb: KnowledgeBase) -> MutualExclusionIndex:
        """The (incrementally refreshed) exclusion index for ``kb``."""
        state = self._state(kb)
        if state.exclusion is None:
            state.exclusion = MutualExclusionIndex(kb, self._similarity)
            self._ctx.count("analysis.exclusion.build")
        else:
            state.exclusion.refresh()
            self._ctx.count("analysis.exclusion.refresh")
        return state.exclusion

    # ------------------------------------------------------------------
    # Feature matrices
    # ------------------------------------------------------------------
    def matrices(
        self,
        kb: KnowledgeBase,
        concepts: Iterable[str],
        features: FeatureExtractor,
    ) -> dict[str, ConceptMatrix]:
        """Concept matrices, rebuilt only where the signature moved.

        ``features`` must be built over this cache's exclusion index for
        the signatures to be sound.  When a rebuilt matrix turns out
        byte-identical to the cached one (a neighbour's version moved
        without actually changing C's features), the *old object* is kept
        so downstream identity-keyed caches (transforms, manifolds) still
        hit.
        """
        state = self._state(kb)
        exclusion = state.exclusion
        if exclusion is None:
            raise RuntimeError("call exclusion() before matrices()")
        result: dict[str, ConceptMatrix] = {}
        ctx = self._ctx
        for concept in concepts:
            signature = self._matrix_signature(kb, exclusion, concept, state)
            entry = state.matrices.get(concept)
            if entry is not None and entry[0] == signature:
                ctx.count("analysis.matrices.hit")
                result[concept] = entry[1]
                continue
            ctx.count("analysis.matrices.miss")
            names, x = features.feature_matrix(concept)
            matrix = ConceptMatrix(concept=concept, instances=names, x=x)
            if (
                entry is not None
                and entry[1].instances == matrix.instances
                and np.array_equal(entry[1].x, matrix.x)
            ):
                ctx.count("analysis.matrices.identical_rebuild")
                matrix = entry[1]
            state.matrices[concept] = (signature, matrix)
            result[concept] = matrix
        return result

    def _matrix_signature(
        self,
        kb: KnowledgeBase,
        exclusion: MutualExclusionIndex,
        concept: str,
        state: _KBState,
    ) -> Signature:
        key = (kb.version, exclusion.epoch)
        memo = state.signatures
        if memo is None or memo[0] != key:
            memo = (key, {})
            state.signatures = memo
        cached = memo[1].get(concept)
        if cached is not None:
            return cached
        instances = kb.instances_of(concept)
        neighbors = kb.concepts_sharing(instances)
        neighbors.add(concept)
        relations = exclusion.relations_version
        version = kb.concept_version
        signature = tuple(
            (name, version(name), relations(name))
            for name in sorted(neighbors)
        )
        memo[1][concept] = signature
        return signature

    # ------------------------------------------------------------------
    # Verified sample
    # ------------------------------------------------------------------
    def verified(
        self,
        kb: KnowledgeBase,
        concepts: Iterable[str],
        sampler: Callable[[KnowledgeBase, str], frozenset[IsAPair]],
    ) -> frozenset[IsAPair]:
        """Union of per-concept verified samples, re-drawn only when dirty.

        ``sampler(kb, concept)`` must be a pure function of the KB's
        current per-concept state (the pipeline uses one RNG substream
        per concept, re-seeded identically on every call).
        """
        state = self._state(kb)
        ctx = self._ctx
        union: set[IsAPair] = set()
        for concept in concepts:
            version = kb.concept_version(concept)
            entry = state.verified.get(concept)
            if entry is None or entry[0] != version:
                ctx.count("analysis.verified.miss")
                entry = (version, sampler(kb, concept))
                state.verified[concept] = entry
            else:
                ctx.count("analysis.verified.hit")
            union |= entry[1]
        return frozenset(union)

    # ------------------------------------------------------------------
    # Evidence + seeds
    # ------------------------------------------------------------------
    def evidence(
        self,
        kb: KnowledgeBase,
        config: LabelingConfig,
        verified: frozenset[IsAPair],
    ) -> EvidenceIndex:
        """A fresh :class:`EvidenceIndex` primed with cached correct-sets.

        Evidenced-correct(C) depends only on C's core counts, alive
        instances and verified sample — all functions of
        ``concept_version(C)`` — so unchanged concepts skip the
        recomputation inside seed labelling.
        """
        state = self._state(kb)
        if state.exclusion is None:
            raise RuntimeError("call exclusion() before evidence()")
        index = EvidenceIndex(
            kb, state.exclusion, config, verified=verified
        )
        primed = {
            concept: names
            for concept, (version, names) in state.correct.items()
            if version == kb.concept_version(concept)
        }
        if primed:
            self._ctx.count("analysis.correct.primed", len(primed))
            index.prime_correct(primed)
        return index

    def seeds(
        self,
        kb: KnowledgeBase,
        concepts: Iterable[str],
        evidence: EvidenceIndex,
        rule3_mode: str = "tolerant",
    ) -> SeedLabelSet:
        """Seed labels, re-derived only for concepts whose deps moved."""
        state = self._state(kb)
        exclusion = state.exclusion
        if exclusion is None:
            raise RuntimeError("call exclusion() before seeds()")
        labeler = SeedLabeler(kb, exclusion, evidence, rule3_mode=rule3_mode)
        result = SeedLabelSet()
        ctx = self._ctx
        for concept in concepts:
            base = self._matrix_signature(kb, exclusion, concept, state)
            entry = state.seeds.get(concept)
            if entry is not None and entry[0] == base:
                # Base match pins concept_version(C), hence the stored
                # sub-instance set; only its claimants need re-versioning.
                if entry[2] == self._claimant_signature(
                    kb, exclusion, entry[1]
                ):
                    ctx.count("analysis.seeds.hit")
                    for label in entry[3]:
                        result.add(label)
                    continue
            ctx.count("analysis.seeds.miss")
            labels = labeler.label_concept(concept)
            subs = self._correct_subs(kb, evidence, concept)
            state.seeds[concept] = (
                base,
                subs,
                self._claimant_signature(kb, exclusion, subs),
                labels,
            )
            for label in labels:
                result.add(label)
        # Harvest the correct-sets this pass computed for the next round.
        for concept, names in evidence.correct_snapshot().items():
            state.correct[concept] = (kb.concept_version(concept), names)
        return result

    def _correct_subs(
        self, kb: KnowledgeBase, evidence: EvidenceIndex, concept: str
    ) -> frozenset[str]:
        """Sub-instances the rules walk: those of evidenced-correct
        instances (RULES 1/3 look no further), minus alive instances whose
        claimants the base signature already tracks."""
        subs: set[str] = set()
        for instance in evidence.evidenced_correct(concept):
            subs.update(kb.sub_instance_counts(concept, instance))
        return frozenset(subs - kb.instances_of(concept))

    def _claimant_signature(
        self,
        kb: KnowledgeBase,
        exclusion: MutualExclusionIndex,
        subs: frozenset[str],
    ) -> Signature:
        relations = exclusion.relations_version
        version = kb.concept_version
        return tuple(
            (name, version(name), relations(name))
            for name in sorted(kb.concepts_sharing(subs))
        )

    # ------------------------------------------------------------------
    # Detector-side reuse
    # ------------------------------------------------------------------
    def refit_cache(self, kb: KnowledgeBase) -> DetectorRefitCache:
        """Per-KB transform/manifold reuse for :meth:`DPDetector.fit`."""
        return self._state(kb).refit
