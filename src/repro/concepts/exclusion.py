"""Mutual exclusion and high-similarity between concepts (§3.2.1).

Two concepts are **mutually exclusive** when their core-set similarity is
below ``exclusive_threshold`` and **highly similar** above
``similar_threshold``; everything in between is merely *irrelevant* (the
three bands of Fig. 4).  The paper additionally propagates exclusion
through highly-similar siblings ("we could safely take the mutually
exclusive concepts of C as the mutually exclusive concepts of C'").  We
implement that by comparing *similarity groups*: A ⊥ B iff no member of
A's group overlaps any member of B's group above the exclusive threshold.

Note on thresholds: the paper's 1e-4 presumes cores of 10⁴–10⁶ instances,
where one shared instance stays under the threshold.  Synthetic cores are
10²–10³, so the library default (see
:class:`repro.config.SimilarityConfig`) is scaled accordingly; Fig. 4's
runner regenerates the distribution the threshold is read from.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ..config import SimilarityConfig
from ..kb.store import KnowledgeBase
from .similarity import CoreSimilarity

__all__ = ["ExclusiveMemberships", "MutualExclusionIndex"]


class ExclusiveMemberships(NamedTuple):
    """Where the instances of some concepts sit under exclusive concepts.

    The *query space* lays the instance ids of each asked concept end to
    end, from ``query_offsets[concept]``; the *member space* does the same
    for every concept with an alive instance, in ``members`` order.  Entry
    ``j`` of the two arrays says that the instance at query position
    ``query[j]`` is alive under a concept mutually exclusive with its
    own, at member position ``member[j]``.  Dead ids are queried too:
    they have no entries of their own but can be looked up.
    """

    query_offsets: dict[str, int]
    query_size: int
    members: list[str]
    query: np.ndarray
    member: np.ndarray


class MutualExclusionIndex:
    """Answers exclusivity / similarity queries over extracted concepts."""

    def __init__(
        self,
        kb: KnowledgeBase,
        config: SimilarityConfig | None = None,
        similarity: CoreSimilarity | None = None,
    ) -> None:
        self._config = config or SimilarityConfig()
        self._similarity = similarity or CoreSimilarity(
            kb, min_core_size=self._config.min_core_size
        )
        self._groups: dict[str, frozenset[str]] = {}
        for concept in self._similarity.concepts:
            self._groups[concept] = self._compute_group(concept)
        # Pairwise exclusivity memo; sound because the similarity snapshot
        # is fixed between refreshes, and refresh() drops every entry a
        # core change could have flipped.
        self._exclusive_cache: dict[tuple[str, str], bool] = {}
        # The last exclusive_memberships join: (KB, its version, the
        # concepts asked, the join).  Feature and seed builders of one
        # detection refit ask the same question.
        self._memberships: tuple | None = None

    def _compute_group(self, concept: str) -> frozenset[str]:
        similar = {
            other
            for other, value in self._similarity.overlapping(concept).items()
            if value > self._config.similar_threshold
        }
        similar.add(concept)
        return frozenset(similar)

    def refresh(self) -> frozenset[str]:
        """Incrementally re-sync with the KB; return the affected closure.

        Similarity rows are refreshed first; groups are recomputed only
        for concepts whose rows changed, and the exclusivity memo drops
        every pair touching the *closure* — affected rows plus any
        concept whose group contains an affected member (exclusivity
        propagates through groups, so those verdicts may flip too).
        ``exclusive(a, b)`` can change only if ``a`` or ``b`` is in the
        returned closure.
        """
        affected = self._similarity.refresh()
        if not affected:
            return frozenset()
        closure = set(affected)
        for concept, group in self._groups.items():
            if group & affected:
                closure.add(concept)
        concepts_now = self._similarity.concepts
        for concept in affected:
            if concept in concepts_now:
                self._groups[concept] = self._compute_group(concept)
            else:
                self._groups.pop(concept, None)
        if self._exclusive_cache:
            dead = [
                key
                for key in self._exclusive_cache
                if key[0] in closure or key[1] in closure
            ]
            for key in dead:
                del self._exclusive_cache[key]
        return frozenset(closure)

    @property
    def similarity(self) -> CoreSimilarity:
        """The underlying core-set similarity."""
        return self._similarity

    @property
    def config(self) -> SimilarityConfig:
        """Thresholds in effect."""
        return self._config

    def group(self, concept: str) -> frozenset[str]:
        """The concept plus everything highly similar to it."""
        return self._groups.get(concept, frozenset({concept}))

    def highly_similar(self, concept_a: str, concept_b: str) -> bool:
        """True when the two concepts' cores overlap strongly."""
        if concept_a == concept_b:
            return True
        return (
            self._similarity.similarity(concept_a, concept_b)
            > self._config.similar_threshold
        )

    def exclusive(self, concept_a: str, concept_b: str) -> bool:
        """Mutual exclusion with similarity-group propagation."""
        if concept_a == concept_b:
            return False
        key = (
            (concept_a, concept_b)
            if concept_a < concept_b
            else (concept_b, concept_a)
        )
        cached = self._exclusive_cache.get(key)
        if cached is not None:
            return cached
        result = self._compute_exclusive(concept_a, concept_b)
        self._exclusive_cache[key] = result
        return result

    def _compute_exclusive(self, concept_a: str, concept_b: str) -> bool:
        group_a = self.group(concept_a)
        group_b = self.group(concept_b)
        if group_a & group_b:
            return False
        threshold = self._config.exclusive_threshold
        for a in group_a:
            for b in group_b:
                if self._similarity.similarity(a, b) >= threshold:
                    return False
        return True

    def exclusive_memberships(
        self, kb: KnowledgeBase, concepts: Sequence[str]
    ) -> ExclusiveMemberships:
        """Join the ids of ``concepts`` with every exclusive membership.

        One pass in KB-wide instance numbers: each query id expands to the
        alive memberships of its instance, and each distinct pair of
        concepts met that way asks :meth:`exclusive` once.  Feature f2 is
        the number of entries per query position; the labelling rules
        weigh the entries by what is known about each membership.  The last
        join is kept until the KB changes.
        """
        concepts = tuple(dict.fromkeys(concepts))
        last = self._memberships
        if (
            last is not None
            and last[0]() is kb
            and last[1] == kb.version
            and last[2] == concepts
        ):
            return last[3]
        joined = self._join_memberships(kb, concepts)
        self._memberships = (weakref.ref(kb), kb.version, concepts, joined)
        return joined

    def _join_memberships(
        self, kb: KnowledgeBase, concepts: tuple[str, ...]
    ) -> ExclusiveMemberships:
        members = kb.concepts()
        names = list(dict.fromkeys(members + list(concepts)))
        code = {concept: i for i, concept in enumerate(names)}
        # Every alive membership, grouped by instance number.
        states = [kb.concept_state(concept) for concept in members]
        member_offsets = _starts([len(state.alive) for state in states])
        numbers = _end_to_end(
            kb.instance_numbers(concept)[state.ids]
            for concept, state in zip(members, states)
        )
        positions = _end_to_end(
            offset + state.ids
            for offset, state in zip(member_offsets.tolist(), states)
        )
        owner = np.repeat(
            np.arange(len(members)), [len(state.ids) for state in states]
        )
        by_number = np.argsort(numbers, kind="stable")
        indptr = _starts(
            np.bincount(numbers, minlength=kb.num_instance_numbers + 1)
        )
        # Every id of every asked concept, laid end to end.
        query_numbers = [kb.instance_numbers(concept) for concept in concepts]
        sizes = list(map(len, query_numbers))
        query_offsets = dict(zip(concepts, _starts(sizes).tolist()))
        query_owner = np.repeat(
            np.array([code[c] for c in concepts], dtype=np.int64), sizes
        )
        query_numbers = _end_to_end(query_numbers)
        # Expand each query position to the memberships of its instance.
        first = indptr[query_numbers]
        degree = indptr[query_numbers + 1] - first
        query = np.repeat(np.arange(len(query_numbers)), degree)
        slot = by_number[
            np.arange(len(query)) + np.repeat(first - _starts(degree), degree)
        ]
        keys = query_owner[query] * len(names) + owner[slot]
        distinct, inverse = np.unique(keys, return_inverse=True)
        pairs = [divmod(key, len(names)) for key in distinct.tolist()]
        verdicts = np.array(
            [self.exclusive(names[a], names[b]) for a, b in pairs], dtype=bool
        )
        keep = verdicts[inverse]
        return ExclusiveMemberships(
            query_offsets, len(query_numbers), members,
            query[keep], positions[slot[keep]],
        )

    def exclusive_concepts_containing(
        self, kb: KnowledgeBase, concept: str, instance: str
    ) -> frozenset[str]:
        """Concepts exclusive with ``concept`` that list ``instance``.

        Its size is the paper's feature ``f2`` numerator: the number of
        mutually exclusive concepts that also obtained the instance.
        """
        return frozenset(
            other
            for other in kb.iter_concepts_with_instance(instance)
            if other != concept and self.exclusive(concept, other)
        )


def _starts(sizes) -> np.ndarray:
    """Where each of consecutive runs of ``sizes`` starts."""
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


def _end_to_end(parts) -> np.ndarray:
    """Integer arrays laid end to end (an empty array when there are none)."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *parts])
