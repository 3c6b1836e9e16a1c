"""The semantic-based iterative extraction engine (§1, §2.1 of the paper).

Iteration 1 extracts only from unambiguous sentences — these become the
*core pairs*.  Every later iteration takes a snapshot of the knowledge
learned so far, tries to resolve still-unresolved ambiguous sentences
against that snapshot, and commits the winners with full provenance
(sentence id, chosen concept, triggering pairs).  The loop stops when an
iteration resolves nothing or ``max_iterations`` is reached.

Snapshot semantics match the paper: knowledge learned *during* iteration
``i`` only becomes usable in iteration ``i + 1``.

There is one resolution loop, :class:`IncrementalExtractor`'s; the batch
extractor (:class:`SemanticIterativeExtractor`) is a one-shot ingest of
the whole corpus.  Resolution is **delta-driven** (semi-naive evaluation,
see :mod:`repro.extraction.index`): an iteration re-attempts only
sentences newly arrived per the ``stream_chunks`` schedule plus sentences
with a candidate ``(concept, instance)`` pair that became visible since
their last attempt — everything else is skipped without calling
``resolve()``.  Results are bit-identical to the naive full scan (same
records, triggers, iteration numbers and logs), which lives on as the
equivalence oracle in ``tests/extraction/naive.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from itertools import islice

from ..config import ExtractionConfig
from ..corpus.corpus import Corpus
from ..corpus.sentence import Sentence
from ..errors import ExtractionError
from ..kb.pair import IsAPair
from ..kb.snapshot import IterationLog
from ..kb.store import KnowledgeBase
from ..runtime.context import NULL_CONTEXT, RunContext
from .index import ResolutionWorklist
from .trigger import resolve

__all__ = [
    "BatchExtraction",
    "ExtractionResult",
    "IncrementalExtractor",
    "SemanticIterativeExtractor",
]


def _arrival_buckets(
    ambiguous: list[Sentence], chunks: int, first: int
) -> dict[int, list[Sentence]]:
    """iteration → sentences first attemptable then (worklist feed).

    With ``chunks > 1`` the ambiguous stream arrives incrementally
    (modelling the paper's cluster scanning 326 M sentences while the
    knowledge base grows): chunk ``i`` first becomes attemptable in
    iteration ``first + i``.
    """
    if not ambiguous:
        return {}
    size = max(1, -(-len(ambiguous) // chunks))
    return {
        first + start // size: ambiguous[start:start + size]
        for start in range(0, len(ambiguous), size)
    }


@dataclass
class ExtractionResult:
    """Everything an extraction run produced."""

    kb: KnowledgeBase
    corpus: Corpus
    log: IterationLog = field(default_factory=IterationLog)
    unresolved_sids: tuple[int, ...] = ()

    @property
    def iterations(self) -> int:
        """Number of iterations that ran (including iteration 1)."""
        return self.log.iterations

    @property
    def total_pairs(self) -> int:
        """Distinct pairs currently alive in the knowledge base."""
        return len(self.kb)


class SemanticIterativeExtractor:
    """Run iterative, knowledge-triggered isA extraction over a corpus.

    A thin wrapper: :meth:`run` ingests the whole corpus as one batch of
    a fresh :class:`IncrementalExtractor`.
    """

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        context: RunContext | None = None,
    ) -> None:
        self._config = config or ExtractionConfig()
        self._ctx = context or NULL_CONTEXT

    def run(self, corpus: Corpus) -> ExtractionResult:
        """Extract from a corpus (de-duplicated on the way in)."""
        with self._ctx.span("extract") as span:
            extractor = IncrementalExtractor(self._config, context=self._ctx)
            extractor.ingest(corpus.sentences)
            result = extractor.result()
            span.set(
                iterations=result.iterations,
                total_pairs=result.total_pairs,
                unresolved=len(result.unresolved_sids),
            )
        return result


@dataclass
class BatchExtraction:
    """What ingesting one sentence batch contributed."""

    index: int
    sentences_seen: int
    sentences_new: int
    core_resolved: int
    ambiguous_resolved: int
    new_pairs: tuple[IsAPair, ...]
    total_pairs: int
    iterations_run: int
    #: Pool sentences the worklist skipped without attempting.
    sentences_skipped: int = 0
    #: Attempts driven by candidate-index wakes rather than fresh arrival.
    index_hits: int = 0


class IncrementalExtractor:
    """Stateful extraction over sentence batches arriving across a session.

    The extractor keeps the knowledge base, the visible snapshot, the
    de-duplication set and the pool of still-unresolved ambiguous
    sentences alive between :meth:`ingest` calls, so documents can arrive
    over the life of a long-running session.  A one-shot ingest of a whole
    corpus is the batch extraction :meth:`SemanticIterativeExtractor.run`.

    Semantics per batch:

    * sentences whose exact surface was seen in *any* earlier batch are
      dropped (session-wide de-duplication: the first surface wins, as
      over the concatenated stream);
    * a sentence whose sid was already kept with another surface, in this
      batch or an earlier one, rejects the whole batch with an
      :class:`~repro.errors.ExtractionError` before anything is
      committed, so :meth:`corpus` never holds two sentences per sid;
    * unambiguous sentences commit at **iteration 1**: an unambiguous
      extraction is core evidence regardless of when it arrives;
    * ambiguous sentences join the unresolved pool and are resolved
      against the visible snapshot in fresh iterations continuing the
      session-global iteration counter, with the configured
      ``stream_chunks`` arrival schedule applied within the batch; no
      resolution round runs while the pool is empty, so a corpus without
      ambiguous sentences logs iteration 1 alone.

    The pool rides the candidate-indexed worklist: carried-over sentences
    are re-attempted only when a new core commit, resolution or rollback
    re-extraction makes one of their candidate pairs visible, so a batch
    that adds nothing relevant pays nothing for a deep pool.
    """

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        kb: KnowledgeBase | None = None,
        context: RunContext | None = None,
    ) -> None:
        self._config = config or ExtractionConfig()
        self._ctx = context or NULL_CONTEXT
        self._kb = kb if kb is not None else KnowledgeBase()
        self._log = IterationLog()
        self._seen: set[str] = set()
        self._surface_of: dict[int, str] = {}
        self._sentences: list[Sentence] = []
        self._pool: dict[int, Sentence] = {}
        self._worklist = ResolutionWorklist()
        self._iteration = 0
        self._batches = 0

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def kb(self) -> KnowledgeBase:
        """The growing knowledge base."""
        return self._kb

    @property
    def log(self) -> IterationLog:
        """Per-iteration stats across all batches so far."""
        return self._log

    @property
    def batches(self) -> int:
        """Number of batches ingested."""
        return self._batches

    @property
    def iteration(self) -> int:
        """The session-global iteration counter (0 before the first batch)."""
        return self._iteration

    @property
    def worklist(self) -> ResolutionWorklist:
        """The candidate-indexed worklist behind delta-driven resolution."""
        return self._worklist

    @property
    def sentences(self) -> Sequence[Sentence]:
        """The accumulated, de-duplicated sentences in arrival order.

        A read-only view of the extractor's own list, not a copy: it grows
        with every :meth:`ingest` and callers must not mutate it.
        """
        return self._sentences

    def unresolved_sids(self) -> tuple[int, ...]:
        """Sentence ids still waiting for enough visible knowledge."""
        return tuple(sorted(self._pool))

    def corpus(self) -> Corpus:
        """The accumulated, de-duplicated corpus ingested so far."""
        return Corpus(tuple(self._sentences))

    def result(self) -> ExtractionResult:
        """The current state as an :class:`ExtractionResult` view."""
        return ExtractionResult(
            kb=self._kb,
            corpus=self.corpus(),
            log=self._log,
            unresolved_sids=self.unresolved_sids(),
        )

    def restore(
        self,
        sentences: Iterable[Sentence],
        pool_sids: Iterable[int],
        iteration: int,
        batches: int = 0,
    ) -> None:
        """Re-adopt checkpointed session state around an existing KB.

        ``sentences`` is the accumulated de-duplicated corpus;
        ``pool_sids`` names the still-unresolved ambiguous sentences.  The
        visible snapshot is rebuilt from the KB, which is exactly what it
        equals at any batch boundary.  Per-sentence attempt history is not
        checkpointed, so the whole pool is conservatively woken for the
        next batch — spurious attempts are sound (they re-fail exactly as
        the naive scan would), see :mod:`repro.extraction.index`.
        """
        self._sentences = list(sentences)
        self._seen = {s.surface for s in self._sentences}
        self._surface_of = {s.sid: s.surface for s in self._sentences}
        wanted = set(pool_sids)
        self._pool = {s.sid: s for s in self._sentences if s.sid in wanted}
        self._worklist = ResolutionWorklist({
            concept: self._kb.instances_of(concept)
            for concept in self._kb.concepts()
        })
        self._worklist.wake_all(self._pool)
        self._iteration = iteration
        self._batches = batches

    def resync_visible(self, concepts: Iterable[str]) -> None:
        """Refresh the visible snapshot after out-of-band KB mutations.

        The cleaning pass rolls knowledge back underneath the extractor;
        resolution must not keep triggering off removed pairs, so the
        session calls this with the KB's dirty-concept set after every
        clean.  The worklist shrinks its snapshot (and thereby re-arms
        the delta detection for any later re-extraction of a removed
        pair) instead of letting stale index state trigger resolution.
        """
        self._worklist.advance(self._kb, concepts)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, sentences: Iterable[Sentence]) -> BatchExtraction:
        """Extract from one batch of sentences and return what it did."""
        with self._ctx.span("extract.ingest", batch=self._batches) as span:
            batch = self._ingest(list(sentences))
            span.add("sentences_seen", batch.sentences_seen)
            span.add("sentences_new", batch.sentences_new)
            span.add("sentences_resolved",
                     batch.core_resolved + batch.ambiguous_resolved)
            span.add("pairs_committed", len(batch.new_pairs))
            span.add("iterations_run", batch.iterations_run)
            span.add("sentences_skipped", batch.sentences_skipped)
            span.add("index_hits", batch.index_hits)
        return batch

    def _admit(self, raw: list[Sentence]) -> list[Sentence]:
        """The batch's sentences with unseen surfaces, in arrival order.

        Every sid is checked before any state changes, so a rejected
        batch leaves the extractor as it was.
        """
        new: list[Sentence] = []
        fresh: set[str] = set()
        surface_of: dict[int, str] = {}
        for sentence in raw:
            sid, surface = sentence.sid, sentence.surface
            kept = self._surface_of.get(sid, surface_of.get(sid))
            if kept is not None and kept != surface:
                raise ExtractionError(
                    f"sid {sid} arrived as {surface!r} but was already "
                    f"ingested as {kept!r}"
                )
            if surface in self._seen or surface in fresh:
                continue
            fresh.add(surface)
            surface_of[sid] = surface
            new.append(sentence)
        self._seen |= fresh
        self._surface_of.update(surface_of)
        return new

    def _ingest(self, raw: list[Sentence]) -> BatchExtraction:
        ctx = self._ctx
        kb = self._kb
        new = self._admit(raw)
        self._sentences.extend(new)
        unambiguous = sorted(
            (s for s in new if not s.is_ambiguous), key=lambda s: s.sid
        )
        ambiguous = sorted(
            (s for s in new if s.is_ambiguous), key=lambda s: s.sid
        )
        # Nothing removes pairs during an ingest and the KB keeps pairs
        # in insertion order, so the batch's new pairs are its tail.
        pairs_before = len(kb)

        # Core commits: unambiguous sentences are iteration-1 evidence.
        grown: set[str] = set()
        with ctx.span("extract.iteration", iteration=1) as span:
            for sentence in unambiguous:
                record = kb.add_extraction(
                    sid=sentence.sid,
                    concept=sentence.concepts[0],
                    instances=sentence.instances,
                    triggers=(),
                    iteration=1,
                )
                grown.add(record.concept)
            span.add("sentences_scanned", len(unambiguous))
            span.add("sentences_resolved", len(unambiguous))
            span.add("pairs_committed", len(kb) - pairs_before)
        # Advancing through the worklist wakes pool sentences whose
        # candidate pairs the fresh core evidence just made visible.
        self._worklist.advance(kb, grown)
        if self._iteration == 0:
            self._iteration = 1
            self._log.record(
                iteration=1,
                sentences_resolved=len(unambiguous),
                new_pairs=len(kb),
                total_pairs=len(kb),
            )

        base = self._iteration
        resolved, skipped, hits = self._resolve(ambiguous)
        self._batches += 1
        return BatchExtraction(
            index=self._batches - 1,
            sentences_seen=len(raw),
            sentences_new=len(new),
            core_resolved=len(unambiguous),
            ambiguous_resolved=resolved,
            new_pairs=tuple(islice(kb.pairs(), pairs_before, None)),
            total_pairs=len(kb),
            iterations_run=self._iteration - base,
            sentences_skipped=skipped,
            index_hits=hits,
        )

    def _resolve(self, ambiguous: list[Sentence]) -> tuple[int, int, int]:
        """Worklist-driven resolution rounds for one batch.

        The batch's ambiguous sentences arrive chunked; the carried-over
        pool is attemptable immediately.  Advances the iteration counter
        and returns ``(resolved, skipped, index_hits)`` totals.
        """
        config = self._config
        ctx = self._ctx
        kb = self._kb
        worklist = self._worklist
        visible = worklist.visible
        pending = self._pool
        base = self._iteration
        chunks_used = config.stream_chunks if ambiguous else 0
        arrivals = _arrival_buckets(ambiguous, config.stream_chunks, base + 1)
        arrived = len(pending)
        for sentence in ambiguous:
            pending[sentence.sid] = sentence
        resolved_total = 0
        skipped_total = 0
        hits_total = 0
        for iteration in range(base + 1, base + config.max_iterations):
            if not pending:
                break
            pairs_before = len(kb)
            newly = arrivals.pop(iteration, ())
            arrived += len(newly)
            woken = worklist.take_woken(pending)
            hits = len(woken)
            attempt = sorted({s.sid for s in newly} | woken)
            resolved_count = 0
            fanout = 0
            grown: set[str] = set()
            with ctx.span("extract.iteration", iteration=iteration) as span:
                for sid in attempt:
                    sentence = pending[sid]
                    resolution = resolve(
                        sentence, visible, policy=config.policy
                    )
                    if resolution is None:
                        worklist.watch(sentence)
                        continue
                    kb.add_extraction(
                        sid=sid,
                        concept=resolution.concept,
                        instances=sentence.instances,
                        triggers=resolution.triggers,
                        iteration=iteration,
                    )
                    del pending[sid]
                    worklist.resolved(sid)
                    grown.add(resolution.concept)
                    fanout += len(resolution.triggers)
                    resolved_count += 1
                scanned = len(attempt)
                skipped = arrived - scanned
                span.add("sentences_scanned", scanned)
                span.add("sentences_resolved", resolved_count)
                span.add("pairs_committed", len(kb) - pairs_before)
                span.add("trigger_fanout", fanout)
                span.add("sentences_skipped", skipped)
                span.add("index_hits", hits)
            arrived -= resolved_count
            skipped_total += skipped
            hits_total += hits
            self._iteration = iteration
            all_arrived = iteration >= base + chunks_used
            if resolved_count == 0 and all_arrived:
                break
            worklist.advance(kb, grown)
            self._log.record(
                iteration=iteration,
                sentences_resolved=resolved_count,
                new_pairs=len(kb) - pairs_before,
                total_pairs=len(kb),
            )
            resolved_total += resolved_count
        # Sentences whose arrival round never ran (the loop broke or hit
        # max_iterations first) have never been attempted and carry no
        # index entries; wake them so the next batch's first round
        # attempts them, exactly as the naive scan would.
        for bucket in arrivals.values():
            worklist.wake_all(s.sid for s in bucket if s.sid in pending)
        return resolved_total, skipped_total, hits_total
