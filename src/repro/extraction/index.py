"""Candidate-indexed worklist for semi-naive, delta-driven resolution.

The naive iterative extractor re-attempts every unresolved ambiguous
sentence each iteration, costing O(iterations × pool × candidates) even
when almost nothing became visible.  This module is the substrate that
avoids it, the way semi-naive evaluation does in Datalog engines: only
*deltas* of the visible snapshot propagate into new resolution attempts.

Two pieces:

* :class:`CandidateIndex` — an inverted index mapping every candidate
  ``(concept, instance)`` pair of every pending sentence to the sentence
  ids waiting on it;
* :class:`ResolutionWorklist` — the per-concept visible-snapshot delta
  tracker plus the wake set.  When a pair transitions from not-visible to
  visible (a new extraction, or a re-extraction after a cleaning
  rollback), every sentence indexed under it is woken for the next
  iteration; everything else is skipped without calling ``resolve()``.

Equivalence argument (pinned by ``tests/extraction/test_delta_equivalence``):

*Completeness.*  Resolution of a sentence ``s`` is a function of the
matched sets ``M(c) = visible[c] ∩ instances(s)`` per candidate concept
``c``; ``s`` resolves iff some ``|M(c)| >= 1``.  Suppose ``s`` failed an
attempt against snapshot ``V_a`` and would resolve against a later
snapshot ``V_T``.  The resolving candidate has ``|M_T(c)| >= 1`` and
``M_a(c)`` empty, so ``M_T(c) ⊄ M_a(c)`` — some instance
``e ∈ M_T(c) \\ M_a(c)`` exists, i.e. ``(c, e)`` was not visible at the
failed attempt and is visible at ``T``.  That transition passed through
:meth:`ResolutionWorklist.advance` (after extraction commits and after
out-of-band mutations alike) and woke ``s``, because every candidate
pair of a pending sentence is indexed.  Hence no resolvable sentence is
ever skipped.

*Soundness of spurious wakes.*  By the contrapositive, a pending sentence
that was *not* woken since its last failed attempt cannot resolve — so a
conservatively woken sentence (e.g. the whole pool after a checkpoint
restore, where per-sentence attempt history is unknown) re-attempts,
fails exactly as the naive scan would, and commits nothing.  Extra
attempts never change results; missed wakes are the only hazard, and
completeness rules them out.  Resolution order stays sid-sorted within an
iteration and the full matched set is recomputed at attempt time, so
records, triggers, iteration numbers and logs are bit-identical to the
naive scan.

Rollback integration: cleaning passes shrink the snapshot through the
same :meth:`ResolutionWorklist.advance`, so a rolled-back pair is
forgotten — resolution can no longer trigger off it — and a later
re-extraction of the same pair registers as a fresh transition that
wakes its waiters.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..corpus.sentence import Sentence
from ..kb.store import KnowledgeBase

__all__ = ["CandidateIndex", "ResolutionWorklist"]


class CandidateIndex:
    """Inverted index: candidate ``(concept, instance)`` → pending sids.

    Entries are registered per sentence (every candidate concept crossed
    with every candidate instance) and dropped when the sentence resolves
    or leaves the pool.  The index is deliberately *visibility-blind*: it
    answers "who could this pair ever matter to", and the worklist decides
    which pair transitions actually fire.
    """

    __slots__ = ("_waiting", "_pairs_by_sid")

    def __init__(self) -> None:
        self._waiting: dict[tuple[str, str], set[int]] = {}
        self._pairs_by_sid: dict[int, tuple[tuple[str, str], ...]] = {}

    def __len__(self) -> int:
        return len(self._pairs_by_sid)

    def __contains__(self, sid: int) -> bool:
        return sid in self._pairs_by_sid

    def watch(self, sentence: Sentence) -> None:
        """Register every candidate pair of a pending sentence (idempotent)."""
        sid = sentence.sid
        if sid in self._pairs_by_sid:
            return
        pairs = tuple(
            (concept, instance)
            for concept in sentence.concepts
            for instance in sentence.instances
        )
        self._pairs_by_sid[sid] = pairs
        waiting = self._waiting
        for pair in pairs:
            entry = waiting.get(pair)
            if entry is None:
                waiting[pair] = {sid}
            else:
                entry.add(sid)

    def discard(self, sid: int) -> None:
        """Drop a sentence's entries (it resolved or left the pool)."""
        pairs = self._pairs_by_sid.pop(sid, None)
        if pairs is None:
            return
        waiting = self._waiting
        for pair in pairs:
            entry = waiting.get(pair)
            if entry is not None:
                entry.discard(sid)
                if not entry:
                    del waiting[pair]


class ResolutionWorklist:
    """Delta tracker + candidate index + wake set driving resolution.

    ``visible`` is the extractor's per-concept snapshot dict, shared by
    reference: the worklist is its single writer, so every snapshot
    advance is observed and turned into wake events.  The wake set
    accumulated by :meth:`advance` / :meth:`wake_all` is drained once per
    iteration via :meth:`take_woken`.
    """

    __slots__ = ("index", "visible", "_woken")

    def __init__(self, visible: dict[str, frozenset[str]] | None = None) -> None:
        self.index = CandidateIndex()
        self.visible: dict[str, frozenset[str]] = (
            visible if visible is not None else {}
        )
        self._woken: set[int] = set()

    # ------------------------------------------------------------------
    # Sentence lifecycle
    # ------------------------------------------------------------------
    def watch(self, sentence: Sentence) -> None:
        """Index a sentence that just failed an attempt and stays pending."""
        self.index.watch(sentence)

    def resolved(self, sid: int) -> None:
        """Forget a sentence that resolved (or left the pool)."""
        self.index.discard(sid)
        self._woken.discard(sid)

    def wake_all(self, sids: Iterable[int]) -> None:
        """Force sids onto the wake set.

        The conservative path for state whose attempt history is unknown
        (checkpoint restore, arrival rounds that never ran): spurious
        attempts are sound, see the module docstring.
        """
        self._woken.update(sids)

    def take_woken(self, pending: Mapping[int, Sentence]) -> set[int]:
        """Drain the wake set, keeping only sids still pending."""
        woken = self._woken
        if not woken:
            return set()
        ready = {sid for sid in woken if sid in pending}
        woken.clear()
        return ready

    # ------------------------------------------------------------------
    # Snapshot advancement
    # ------------------------------------------------------------------
    def advance(self, kb: KnowledgeBase, concepts: Iterable[str]) -> None:
        """Move the snapshot of ``concepts`` to the KB, waking waiters.

        Every instance alive in the KB but absent from the tracked
        snapshot is a not-visible → visible transition, and every
        sentence indexed under that pair joins the wake set for the next
        iteration.  That holds whatever mutated the KB, so the
        completeness argument (module docstring) needs no other path.
        Extraction calls this with the concepts it just grew.  After a
        cleaning pass the session calls it with the concepts the pass
        touched, so the snapshot also shrinks: resolution can no longer
        trigger off a removed pair, and a later re-extraction of that
        pair is a fresh transition that wakes its waiters instead of
        being treated as already known.  A concept left with no alive
        instance is dropped; one that just grew never is.
        """
        waiting = self.index._waiting
        visible = self.visible
        woken = self._woken
        for concept in concepts:
            fresh = kb.instances_of(concept)
            old = visible.get(concept)
            for instance in fresh - old if old else fresh:
                entry = waiting.get((concept, instance))
                if entry:
                    woken |= entry
            if fresh:
                visible[concept] = fresh
            else:
                visible.pop(concept, None)
