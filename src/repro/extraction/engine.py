"""The semantic-based iterative extraction engine (§1, §2.1 of the paper).

Iteration 1 extracts only from unambiguous sentences — these become the
*core pairs*.  Every later iteration takes a snapshot of the knowledge
learned so far, tries to resolve still-unresolved ambiguous sentences
against that snapshot, and commits the winners with full provenance
(sentence id, chosen concept, triggering pairs).  The loop stops when an
iteration resolves nothing or ``max_iterations`` is reached.

Snapshot semantics match the paper: knowledge learned *during* iteration
``i`` only becomes usable in iteration ``i + 1``.

Resolution is **delta-driven** by default (semi-naive evaluation, see
:mod:`repro.extraction.index`): an iteration re-attempts only sentences
newly arrived per the ``stream_chunks`` schedule plus sentences with a
candidate ``(concept, instance)`` pair that became visible since their
last attempt — everything else is skipped without calling ``resolve()``.
Results are bit-identical to the naive full scan (same records, triggers,
iteration numbers and logs); ``ExtractionConfig(delta_index=False)``
keeps the naive scan as the equivalence and benchmark reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from ..config import ExtractionConfig
from ..corpus.corpus import Corpus
from ..corpus.sentence import Sentence
from ..kb.pair import IsAPair
from ..kb.snapshot import IterationLog
from ..kb.store import KnowledgeBase
from ..runtime.context import NULL_CONTEXT, RunContext
from ..runtime.events import ExtractionIteration
from .index import ResolutionWorklist
from .trigger import resolve

__all__ = [
    "BatchExtraction",
    "ExtractionResult",
    "IncrementalExtractor",
    "SemanticIterativeExtractor",
]


def _arrival_schedule(
    ambiguous: list[Sentence], chunks: int, first: int
) -> dict[int, int] | None:
    """sid → iteration the sentence first becomes attemptable.

    ``None`` in the common single-chunk configuration (or with nothing to
    schedule): every sentence arrives at ``first``, and callers skip the
    per-sentence arrival bookkeeping entirely.
    """
    if chunks == 1 or not ambiguous:
        return None
    chunk_size = max(1, -(-len(ambiguous) // chunks))
    return {
        sentence.sid: first + index // chunk_size
        for index, sentence in enumerate(ambiguous)
    }


def _arrival_buckets(
    ambiguous: list[Sentence], arrival: dict[int, int] | None, first: int
) -> dict[int, list[Sentence]]:
    """iteration → sentences first attemptable then (worklist feed)."""
    if not ambiguous:
        return {}
    if arrival is None:
        return {first: list(ambiguous)}
    buckets: dict[int, list[Sentence]] = {}
    for sentence in ambiguous:
        buckets.setdefault(arrival[sentence.sid], []).append(sentence)
    return buckets


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
    """Run iterative, knowledge-triggered isA extraction over a corpus."""

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        context: RunContext | None = None,
    ) -> None:
        self._config = config or ExtractionConfig()
        self._ctx = context or NULL_CONTEXT

    def run(self, corpus: Corpus) -> ExtractionResult:
        """Extract from a (deduplicated) corpus and return the result."""
        with self._ctx.span("extract") as span:
            result = self._run(corpus)
            span.set(
                iterations=result.iterations,
                total_pairs=result.total_pairs,
                unresolved=len(result.unresolved_sids),
            )
        return result

    def _run(self, corpus: Corpus) -> ExtractionResult:
        config = self._config
        ctx = self._ctx
        deduped = corpus.deduplicated()
        kb = KnowledgeBase()
        log = IterationLog()

        # Iteration 1: unambiguous sentences only.
        unambiguous = sorted(deduped.unambiguous(), key=lambda s: s.sid)
        with ctx.span("extract.iteration", iteration=1) as span:
            for sentence in unambiguous:
                kb.add_extraction(
                    sid=sentence.sid,
                    concept=sentence.concepts[0],
                    instances=sentence.instances,
                    triggers=(),
                    iteration=1,
                )
            span.add("sentences_scanned", len(unambiguous))
            span.add("sentences_resolved", len(unambiguous))
            span.add("pairs_committed", len(kb))
        visible: dict[str, frozenset[str]] = {
            concept: kb.instances_of(concept) for concept in kb.concepts()
        }
        log.record(
            iteration=1,
            sentences_resolved=len(unambiguous),
            new_pairs=len(kb),
            total_pairs=len(kb),
        )
        ctx.emit(
            ExtractionIteration(
                iteration=1,
                sentences_scanned=len(unambiguous),
                sentences_resolved=len(unambiguous),
                new_pairs=len(kb),
                total_pairs=len(kb),
                trigger_fanout=0,
            )
        )

        # Iterations 2..n: resolve ambiguous sentences against the snapshot.
        # With stream_chunks > 1 the ambiguous stream arrives incrementally
        # (modelling the paper's cluster scanning 326 M sentences while the
        # knowledge base grows): chunk ``i`` first becomes attemptable in
        # iteration ``2 + i``.
        ambiguous = sorted(deduped.ambiguous(), key=lambda s: s.sid)
        if config.delta_index:
            unresolved_sids = self._resolve_delta(kb, log, visible, ambiguous)
        else:
            unresolved_sids = self._resolve_naive(kb, log, visible, ambiguous)
        return ExtractionResult(
            kb=kb,
            corpus=deduped,
            log=log,
            unresolved_sids=unresolved_sids,
        )

    def _resolve_delta(
        self,
        kb: KnowledgeBase,
        log: IterationLog,
        visible: dict[str, frozenset[str]],
        ambiguous: list[Sentence],
    ) -> tuple[int, ...]:
        """Semi-naive resolution: attempt only arrivals and woken sentences."""
        config = self._config
        ctx = self._ctx
        arrival = _arrival_schedule(ambiguous, config.stream_chunks, 2)
        arrivals = _arrival_buckets(ambiguous, arrival, 2)
        pending: dict[int, Sentence] = {s.sid: s for s in ambiguous}
        worklist = ResolutionWorklist(visible)
        arrived = 0
        for iteration in range(2, config.max_iterations + 1):
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
                        sentence,
                        visible,
                        policy=config.policy,
                        min_evidence=config.min_evidence,
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
            ctx.emit(
                ExtractionIteration(
                    iteration=iteration,
                    sentences_scanned=scanned,
                    sentences_resolved=resolved_count,
                    new_pairs=len(kb) - pairs_before,
                    total_pairs=len(kb),
                    trigger_fanout=fanout,
                    sentences_skipped=skipped,
                    index_hits=hits,
                )
            )
            all_arrived = iteration >= 1 + config.stream_chunks
            if resolved_count == 0 and all_arrived:
                break
            worklist.commit_deltas(kb, grown)
            log.record(
                iteration=iteration,
                sentences_resolved=resolved_count,
                new_pairs=len(kb) - pairs_before,
                total_pairs=len(kb),
            )
            if not pending:
                break
        return tuple(sorted(pending))

    def _resolve_naive(
        self,
        kb: KnowledgeBase,
        log: IterationLog,
        visible: dict[str, frozenset[str]],
        ambiguous: list[Sentence],
    ) -> tuple[int, ...]:
        """The reference full scan: every arrived sentence, every iteration."""
        config = self._config
        ctx = self._ctx
        arrival = _arrival_schedule(ambiguous, config.stream_chunks, 2)
        unresolved = ambiguous
        for iteration in range(2, config.max_iterations + 1):
            pairs_before = len(kb)
            still_unresolved = []
            resolved_count = 0
            scanned = 0
            fanout = 0
            grown: set[str] = set()
            with ctx.span("extract.iteration", iteration=iteration) as span:
                for sentence in unresolved:
                    if arrival is not None and arrival[sentence.sid] > iteration:
                        still_unresolved.append(sentence)
                        continue
                    scanned += 1
                    resolution = resolve(
                        sentence,
                        visible,
                        policy=config.policy,
                        min_evidence=config.min_evidence,
                    )
                    if resolution is None:
                        still_unresolved.append(sentence)
                        continue
                    kb.add_extraction(
                        sid=sentence.sid,
                        concept=resolution.concept,
                        instances=sentence.instances,
                        triggers=resolution.triggers,
                        iteration=iteration,
                    )
                    grown.add(resolution.concept)
                    fanout += len(resolution.triggers)
                    resolved_count += 1
                span.add("sentences_scanned", scanned)
                span.add("sentences_resolved", resolved_count)
                span.add("pairs_committed", len(kb) - pairs_before)
                span.add("trigger_fanout", fanout)
            unresolved = still_unresolved
            ctx.emit(
                ExtractionIteration(
                    iteration=iteration,
                    sentences_scanned=scanned,
                    sentences_resolved=resolved_count,
                    new_pairs=len(kb) - pairs_before,
                    total_pairs=len(kb),
                    trigger_fanout=fanout,
                )
            )
            all_arrived = iteration >= 1 + config.stream_chunks
            if resolved_count == 0 and all_arrived:
                break
            # Re-snapshot only the concepts that gained instances this
            # iteration; extraction never removes knowledge, so every other
            # concept's snapshot is still current.
            for concept in grown:
                visible[concept] = kb.instances_of(concept)
            log.record(
                iteration=iteration,
                sentences_resolved=resolved_count,
                new_pairs=len(kb) - pairs_before,
                total_pairs=len(kb),
            )
            if not unresolved:
                break
        return tuple(s.sid for s in unresolved)


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
    #: Pool sentences the worklist skipped without attempting (0 on the
    #: naive scan, which attempts everything).
    sentences_skipped: int = 0
    #: Attempts driven by evidence-index wakes rather than fresh arrival.
    index_hits: int = 0


class IncrementalExtractor:
    """Stateful extraction over sentence batches arriving across a session.

    The batch extractor (:class:`SemanticIterativeExtractor`) consumes one
    fixed corpus; this variant keeps the knowledge base, the visible
    snapshot, the de-duplication set and the pool of still-unresolved
    ambiguous sentences alive between :meth:`ingest` calls, so documents
    can arrive over the life of a long-running session.

    Semantics per batch:

    * sentences whose exact surface was seen in *any* earlier batch are
      dropped (session-wide de-duplication, matching
      :meth:`Corpus.deduplicated` over the concatenated stream);
    * unambiguous sentences commit at **iteration 1**: an unambiguous
      extraction is core evidence regardless of when it arrives;
    * ambiguous sentences join the unresolved pool and are resolved
      against the visible snapshot in fresh iterations continuing the
      session-global iteration counter, with the configured
      ``stream_chunks`` arrival schedule applied within the batch.

    Feeding a whole corpus as one batch reproduces
    :meth:`SemanticIterativeExtractor.run` bit-identically — same records,
    same iteration numbers, same log — which is the equivalence the
    streaming service's tests pin.  A batch with no new ambiguous
    sentences skips the idle arrival rounds the batch extractor would
    spin through; that is the one intentional divergence.

    The pool rides the same evidence-indexed worklist as the batch
    extractor: carried-over sentences are re-attempted only when a new
    core commit, resolution or rollback re-extraction makes one of their
    candidate pairs visible, so a batch that adds nothing relevant pays
    nothing for a deep pool.
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
        self._sentences: list[Sentence] = []
        self._pool: dict[int, Sentence] = {}
        self._visible: dict[str, frozenset[str]] = {}
        self._worklist = ResolutionWorklist(self._visible)
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
        """The evidence-indexed worklist behind delta-driven resolution."""
        return self._worklist

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
        wanted = set(pool_sids)
        self._pool = {s.sid: s for s in self._sentences if s.sid in wanted}
        self._visible = {
            concept: self._kb.instances_of(concept)
            for concept in self._kb.concepts()
        }
        self._worklist = ResolutionWorklist(self._visible)
        if self._config.delta_index:
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
        self._worklist.resync(self._kb, concepts)

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

    def _ingest(self, raw: list[Sentence]) -> BatchExtraction:
        config = self._config
        ctx = self._ctx
        kb = self._kb
        new: list[Sentence] = []
        for sentence in raw:
            if sentence.surface in self._seen:
                continue
            self._seen.add(sentence.surface)
            new.append(sentence)
        self._sentences.extend(new)
        unambiguous = sorted(
            (s for s in new if not s.is_ambiguous), key=lambda s: s.sid
        )
        ambiguous = sorted(
            (s for s in new if s.is_ambiguous), key=lambda s: s.sid
        )
        new_pairs: list[IsAPair] = []

        # Core commits: unambiguous sentences are iteration-1 evidence.
        grown: set[str] = set()
        for sentence in unambiguous:
            record = kb.add_extraction(
                sid=sentence.sid,
                concept=sentence.concepts[0],
                instances=sentence.instances,
                triggers=(),
                iteration=1,
            )
            grown.add(record.concept)
            for pair in record.produced:
                if kb.count(pair) == 1:
                    new_pairs.append(pair)
        if config.delta_index:
            # Advancing through the worklist wakes pool sentences whose
            # candidate pairs the fresh core evidence just made visible.
            self._worklist.commit_deltas(kb, grown)
        else:
            for concept in grown:
                self._visible[concept] = kb.instances_of(concept)
        if self._iteration == 0:
            self._iteration = 1
            self._log.record(
                iteration=1,
                sentences_resolved=len(unambiguous),
                new_pairs=len(kb),
                total_pairs=len(kb),
            )
            ctx.emit(
                ExtractionIteration(
                    iteration=1,
                    sentences_scanned=len(unambiguous),
                    sentences_resolved=len(unambiguous),
                    new_pairs=len(kb),
                    total_pairs=len(kb),
                    trigger_fanout=0,
                )
            )

        # Resolution: the batch's ambiguous sentences arrive chunked (as
        # in the batch extractor), the carried-over pool is attemptable
        # immediately.
        base = self._iteration
        if config.delta_index:
            resolved_total, last_iteration, skipped, hits = (
                self._resolve_ambiguous_delta(ambiguous, new_pairs)
            )
        else:
            resolved_total, last_iteration = self._resolve_ambiguous_naive(
                ambiguous, new_pairs
            )
            skipped = hits = 0

        self._iteration = last_iteration
        self._batches += 1
        return BatchExtraction(
            index=self._batches - 1,
            sentences_seen=len(raw),
            sentences_new=len(new),
            core_resolved=len(unambiguous),
            ambiguous_resolved=resolved_total,
            new_pairs=tuple(new_pairs),
            total_pairs=len(kb),
            iterations_run=last_iteration - base,
            sentences_skipped=skipped,
            index_hits=hits,
        )

    def _resolve_ambiguous_delta(
        self, ambiguous: list[Sentence], new_pairs: list[IsAPair]
    ) -> tuple[int, int, int, int]:
        """Worklist-driven resolution rounds for one batch.

        Returns ``(resolved_total, last_iteration, skipped, hits)``.
        """
        config = self._config
        ctx = self._ctx
        kb = self._kb
        visible = self._visible
        worklist = self._worklist
        pending = self._pool
        base = self._iteration
        chunks_used = config.stream_chunks if ambiguous else 0
        arrival = _arrival_schedule(ambiguous, config.stream_chunks, base + 1)
        arrivals = _arrival_buckets(ambiguous, arrival, base + 1)
        arrived = len(pending)
        for sentence in ambiguous:
            pending[sentence.sid] = sentence
        resolved_total = 0
        skipped_total = 0
        hits_total = 0
        last_iteration = base
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
                        sentence,
                        visible,
                        policy=config.policy,
                        min_evidence=config.min_evidence,
                    )
                    if resolution is None:
                        worklist.watch(sentence)
                        continue
                    record = kb.add_extraction(
                        sid=sid,
                        concept=resolution.concept,
                        instances=sentence.instances,
                        triggers=resolution.triggers,
                        iteration=iteration,
                    )
                    for pair in record.produced:
                        if kb.count(pair) == 1:
                            new_pairs.append(pair)
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
            last_iteration = iteration
            ctx.emit(
                ExtractionIteration(
                    iteration=iteration,
                    sentences_scanned=scanned,
                    sentences_resolved=resolved_count,
                    new_pairs=len(kb) - pairs_before,
                    total_pairs=len(kb),
                    trigger_fanout=fanout,
                    sentences_skipped=skipped,
                    index_hits=hits,
                )
            )
            all_arrived = iteration >= base + chunks_used
            if resolved_count == 0 and all_arrived:
                break
            worklist.commit_deltas(kb, grown)
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
            worklist.wake_all(
                s.sid for s in bucket if s.sid in pending
            )
        return resolved_total, last_iteration, skipped_total, hits_total

    def _resolve_ambiguous_naive(
        self, ambiguous: list[Sentence], new_pairs: list[IsAPair]
    ) -> tuple[int, int]:
        """The reference full-scan rounds for one batch."""
        config = self._config
        ctx = self._ctx
        kb = self._kb
        base = self._iteration
        chunks_used = config.stream_chunks if ambiguous else 0
        arrival = _arrival_schedule(ambiguous, config.stream_chunks, base + 1)
        pool = [self._pool[sid] for sid in sorted(self._pool)]
        unresolved = sorted(pool + ambiguous, key=lambda s: s.sid)
        resolved_total = 0
        last_iteration = base
        for iteration in range(base + 1, base + config.max_iterations):
            if not unresolved:
                break
            pairs_before = len(kb)
            still_unresolved = []
            resolved_count = 0
            scanned = 0
            fanout = 0
            grown: set[str] = set()
            with ctx.span("extract.iteration", iteration=iteration) as span:
                for sentence in unresolved:
                    if (
                        arrival is not None
                        and arrival.get(sentence.sid, 0) > iteration
                    ):
                        still_unresolved.append(sentence)
                        continue
                    scanned += 1
                    resolution = resolve(
                        sentence,
                        self._visible,
                        policy=config.policy,
                        min_evidence=config.min_evidence,
                    )
                    if resolution is None:
                        still_unresolved.append(sentence)
                        continue
                    record = kb.add_extraction(
                        sid=sentence.sid,
                        concept=resolution.concept,
                        instances=sentence.instances,
                        triggers=resolution.triggers,
                        iteration=iteration,
                    )
                    for pair in record.produced:
                        if kb.count(pair) == 1:
                            new_pairs.append(pair)
                    grown.add(resolution.concept)
                    fanout += len(resolution.triggers)
                    resolved_count += 1
                span.add("sentences_scanned", scanned)
                span.add("sentences_resolved", resolved_count)
                span.add("pairs_committed", len(kb) - pairs_before)
                span.add("trigger_fanout", fanout)
            unresolved = still_unresolved
            last_iteration = iteration
            ctx.emit(
                ExtractionIteration(
                    iteration=iteration,
                    sentences_scanned=scanned,
                    sentences_resolved=resolved_count,
                    new_pairs=len(kb) - pairs_before,
                    total_pairs=len(kb),
                    trigger_fanout=fanout,
                )
            )
            all_arrived = iteration >= base + chunks_used
            if resolved_count == 0 and all_arrived:
                break
            for concept in grown:
                self._visible[concept] = kb.instances_of(concept)
            self._log.record(
                iteration=iteration,
                sentences_resolved=resolved_count,
                new_pairs=len(kb) - pairs_before,
                total_pairs=len(kb),
            )
            resolved_total += resolved_count
        self._pool = {s.sid: s for s in unresolved}
        return resolved_total, last_iteration
