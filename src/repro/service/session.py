"""Incremental extraction sessions with drift-triggered cleaning.

An :class:`IngestSession` wraps the incremental extractor, the shared
analysis substrate and the DP cleaner into a long-running service loop.
Per batch it:

1. extracts only the new sentences (riding the incremental visible
   snapshot and the versioned KB and score caches);
2. updates drift telemetry — the fraction of the batch's new pairs whose
   instance also lives under a mutually exclusive concept, read from the
   shared :class:`~repro.concepts.exclusion.MutualExclusionIndex`;
3. asks the :class:`~repro.service.policy.IngestPolicy` whether a
   DP-cleaning pass is due (staleness or drift), and runs one if so.

The pass's round budget follows its trigger.  Paper §4 cleans after each
extraction iteration until no DP remains; in a session the next batch's
pass is that next iteration, so a **drift**-triggered pass runs exactly
one DP round and leaves the rest to the next pass.  **Staleness**-
triggered and **forced** passes run to the fixed point under the
cleaner's default cap (:data:`~repro.cleaning.dp_cleaner.MAX_ROUNDS`) —
so a policy with a staleness threshold of 0 and ``force_clean=True``
keep batch cleaning's meaning.
:meth:`IngestSession.stats` reports ``converged``: whether the last
pass's last round rolled nothing back.

The detector embedding (standardisation + KPCA basis, §3.3.1) follows
the trigger too.  The session owns one
:class:`~repro.learning.detector.DetectorRefitCache` and hands it to the
cleaner it builds for each pass.  A **drift** pass (the fast path) fits
under it, so only the session's first pass fits a basis and later drift
passes reuse it, with the transforms still valid under it.  A
**staleness** or **forced** pass (the scheduled full re-run) starts a
fresh cache and refits.  Every pass is a pure function of (KB, corpus,
config, trigger, session basis) — the property both invariants ride on:

* *batch equivalence*: the whole corpus in one batch with cleaning
  forced refits, and so reproduces ``Pipeline.extract()`` +
  ``Pipeline.dp_cleaner().clean()`` bit-identically;
* *crash resume*: ``checkpoint + journal replay`` (re-running the cheap
  extraction, re-applying journaled rollback ops, never refitting a
  detector) reaches a bit-identical KB versus an uninterrupted session.
  A pass that fits a basis writes it to a file before its journal entry
  names it, and snapshots carry the live one, so a resumed session
  continues under the very basis the uninterrupted one holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable

from ..analysis.cache import AnalysisCache
from ..cleaning.dp_cleaner import DPCleaner
from ..config import PipelineConfig
from ..corpus.corpus import Corpus
from ..corpus.sentence import Sentence
from ..errors import ServiceError
from ..extraction.engine import BatchExtraction, IncrementalExtractor
from ..kb.pair import IsAPair
from ..kb.store import KnowledgeBase
from ..learning.detector import DetectorRefitCache
from ..learning.embedding import FrozenEmbedding
from ..runtime.collector import collector_paused
from ..runtime.context import NULL_CONTEXT, RunContext
from .checkpoint import CheckpointStore
from .journal import replay_clean_ops
from .policy import IngestPolicy

__all__ = ["DriftStats", "CleaningReport", "BatchReport", "IngestSession"]


@dataclass(frozen=True)
class DriftStats:
    """Drift telemetry for one batch."""

    new_pairs: int
    conflicted: int
    fraction: float
    #: concept → [new pairs, conflicted pairs] for this batch.
    per_concept: dict[str, list[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class CleaningReport:
    """What one cleaning pass did."""

    reason: str
    removed_pairs: int
    records_rolled_back: int
    rounds: int
    #: per-round counters (round_index, intentional/accidental DPs, ...).
    round_stats: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class BatchReport:
    """Everything one ingested batch did to the session."""

    seq: int
    index: int
    sentences_seen: int
    sentences_new: int
    core_resolved: int
    ambiguous_resolved: int
    new_pairs: int
    total_pairs: int
    iterations_run: int
    drift: DriftStats
    cleaning: CleaningReport | None = None

    def to_dict(self) -> dict:
        # Shallow: asdict's deep copy costs ~2 ms per report per snapshot.
        return {
            **vars(self),
            "drift": dict(vars(self.drift)),
            "cleaning": self.cleaning and dict(vars(self.cleaning)),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BatchReport":
        """Inverse of :meth:`to_dict`; raises if ``payload`` is malformed."""
        values = dict(payload)
        values["drift"] = DriftStats(**values["drift"])
        if values.get("cleaning") is not None:
            values["cleaning"] = CleaningReport(**values["cleaning"])
        return cls(**values)


def _decode_report(payload, source: Path, seq) -> BatchReport:
    """A stored :class:`BatchReport`, or a ``ServiceError`` naming where."""
    try:
        return BatchReport.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(
            f"undecodable batch report for seq {seq} in {source}: {exc!r}"
        ) from exc


class IngestSession:
    """A durable streaming ingestion session over one growing KB.

    Parameters
    ----------
    config:
        The full pipeline configuration (extraction, similarity and
        cleaning sections are used).
    cleaner_factory:
        Called once per cleaning pass with the session's
        :class:`~repro.learning.detector.DetectorRefitCache`; returns a
        fresh :class:`~repro.cleaning.DPCleaner` whose detection fits
        under that cache — typically ``pipeline.dp_cleaner`` (see
        :meth:`repro.experiments.pipeline.Pipeline.session`).  The pass's
        :attr:`~repro.cleaning.base.CleaningResult.rollback_ops` are what
        the session journals.
    policy:
        Cleaning trigger thresholds; defaults to :class:`IngestPolicy`.
    analysis:
        The analysis cache shared with the cleaner's detection, so drift
        telemetry reads the same exclusion index detection refreshes.
    checkpoint_dir:
        Where to journal batches and write snapshots.  ``None`` runs an
        ephemeral in-memory session.
    checkpoint_every:
        Snapshot cadence in batches (0 = only on explicit
        :meth:`checkpoint` calls; the journal alone already makes the
        session durable).  A negative value raises ``ServiceError``.
    resume:
        Rebuild state from ``checkpoint_dir`` before accepting batches.
    context:
        The :class:`~repro.runtime.context.RunContext` to trace through
        (default: the null context).  Spans are observation only: the
        policy reads the session's own staleness counter and the batch's
        drift, so sessions sharing a pipeline's context stay independent.
    """

    def __init__(
        self,
        *,
        config: PipelineConfig,
        cleaner_factory: Callable[[DetectorRefitCache], DPCleaner],
        policy: IngestPolicy | None = None,
        analysis: AnalysisCache | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        context: RunContext | None = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ServiceError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self._config = config
        self._cleaner_factory = cleaner_factory
        self._policy = policy or IngestPolicy()
        self._analysis = analysis or AnalysisCache(
            similarity=config.similarity
        )
        self._ctx = context or NULL_CONTEXT
        # New sentences since the last cleaning pass: the one trigger
        # input the reports do not hold.
        self._staleness = 0
        # The detector basis drift passes reuse, and the name of the file
        # that holds it (None until a durable session's pass fits one).
        self._refit_cache = DetectorRefitCache()
        self._basis: str | None = None
        self._extractor = IncrementalExtractor(
            config.extraction, context=self._ctx
        )
        self._store = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        )
        self._checkpoint_every = checkpoint_every
        self._seq = 0
        self._last_snapshot_seq = 0
        self._reports: list[BatchReport] = []
        # Set while a batch commits; left set when its commit failed, so
        # the live state is ahead of the journal and no work is taken.
        self._uncommitted = False
        if resume:
            if self._store is None:
                raise ServiceError("resume requires a checkpoint_dir")
            self._restore()

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def kb(self) -> KnowledgeBase:
        """The session's growing knowledge base."""
        return self._extractor.kb

    @property
    def policy(self) -> IngestPolicy:
        """The cleaning trigger policy in effect."""
        return self._policy

    @property
    def context(self) -> RunContext:
        """The run context the session traces through."""
        return self._ctx

    @property
    def reports(self) -> list[BatchReport]:
        """Per-batch reports in ingest order (replayed ones included)."""
        return list(self._reports)

    @property
    def batches_ingested(self) -> int:
        """Number of committed batches (a resumed session counts replays)."""
        return len(self._reports)

    @property
    def cleanings(self) -> int:
        """Number of cleaning passes run (or replayed) so far."""
        return sum(report.cleaning is not None for report in self._reports)

    @property
    def staleness(self) -> int:
        """New sentences ingested since the last cleaning pass."""
        return self._staleness

    def corpus(self) -> Corpus:
        """The accumulated de-duplicated corpus."""
        return self._extractor.corpus()

    def stats(self) -> dict:
        """A summary of the session so far.

        ``converged`` says whether the last cleaning pass reached its
        fixed point (its last round rolled nothing back); ``None`` before
        any pass.  A drift pass runs one round, so after one that still
        removed pairs this is false: ``ingest([], force_clean=True)``
        converges on demand.
        """
        return {
            "batches": self.batches_ingested,
            "cleanings": self.cleanings,
            "pairs": len(self.kb),
            "removed_pairs": len(self.kb.removed_pairs()),
            "unresolved": len(self._extractor.unresolved_sids()),
            "staleness": self._staleness,
            "converged": self._converged(),
            "drift_history": [r.drift.fraction for r in self._reports],
        }

    def _converged(self) -> bool | None:
        last = next(
            (r.cleaning for r in reversed(self._reports) if r.cleaning),
            None,
        )
        if last is None:
            return None
        final = last.round_stats[-1]
        return not (final["records_rolled_back"] or final["pairs_removed"])

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @collector_paused
    def ingest(
        self,
        sentences: Corpus | Iterable[Sentence],
        force_clean: bool = False,
    ) -> BatchReport:
        """Ingest one batch; extract, measure drift, maybe clean; commit.

        If the commit (the basis file or the journal append) raises, the
        error propagates and the session refuses every later ``ingest``
        and ``checkpoint``: resume a new session from the directory.
        """
        self._check_committed()
        ctx = self._ctx
        seq = self._seq + 1
        with ctx.span("ingest.batch", seq=seq) as span:
            batch = self._extractor.ingest(list(sentences))
            new_sentences = self._new_batch_sentences(batch)
            span.add("sentences_seen", batch.sentences_seen)
            span.add("sentences_new", batch.sentences_new)
            span.add("new_pairs", len(batch.new_pairs))
            span.add("sentences_skipped", batch.sentences_skipped)
            span.add("index_hits", batch.index_hits)
            drift = self._drift_stats(batch)
            self._staleness += batch.sentences_new
            span.set(
                drift_fraction=drift.fraction,
                conflicted=drift.conflicted,
                total_pairs=batch.total_pairs,
                iterations_run=batch.iterations_run,
            )
            reason = self._policy.decide(
                staleness=self._staleness,
                drift=drift.fraction,
                new_pairs=drift.new_pairs,
                forced=force_clean,
            )
            cleaning = None
            clean_ops: list[list] = []
            fitted = None
            if reason is not None:
                span.set(clean_reason=reason, staleness=self._staleness)
                cleaning, clean_ops, fitted = self._clean(reason)
            report = BatchReport(
                seq=seq,
                index=batch.index,
                sentences_seen=batch.sentences_seen,
                sentences_new=batch.sentences_new,
                core_resolved=batch.core_resolved,
                ambiguous_resolved=batch.ambiguous_resolved,
                new_pairs=len(batch.new_pairs),
                total_pairs=batch.total_pairs,
                iterations_run=batch.iterations_run,
                drift=drift,
                cleaning=cleaning,
            )
            if self._store is not None:
                entry = {"seq": seq, "type": "batch", "report": report.to_dict()}
                if clean_ops:
                    entry["clean_ops"] = clean_ops
                # Stays set if a write below raises.
                self._uncommitted = True
                if new_sentences:
                    # Durable before the entry that names it commits.
                    with ctx.span("checkpoint.sentences") as batch_span:
                        entry["sentences"] = self._store.write_batch(
                            seq, new_sentences
                        )
                        batch_span.add("bytes", entry["sentences"]["bytes"])
                if fitted is not None:
                    # Durable before the entry that names it commits.
                    with ctx.span("checkpoint.basis"):
                        self._basis = self._store.write_basis(seq, fitted)
                    entry["embedding"] = self._basis
                with ctx.span("journal.append") as journal_span:
                    written = self._store.journal.append(entry)
                    journal_span.add("bytes", written)
                self._uncommitted = False
            self._seq = seq
            self._reports.append(report)
            due = (
                self._store is not None
                and self._checkpoint_every > 0
                and seq - self._last_snapshot_seq >= self._checkpoint_every
            )
            if due:
                self.checkpoint()
        return report

    def _check_committed(self) -> None:
        if self._uncommitted:
            raise ServiceError(
                f"a batch failed to commit to {self._store.journal.path}, "
                "so this session is ahead of its journal; resume a new "
                f"session from {self._store.directory}"
            )

    def _new_batch_sentences(self, batch: BatchExtraction) -> list[Sentence]:
        """The batch's sentences that survived session-wide dedup.

        The extractor appends exactly the deduplicated survivors to its
        accumulated corpus, so they are the trailing ``sentences_new``
        entries — the only sentences the journal needs to carry.
        """
        if batch.sentences_new == 0:
            return []
        return list(self._extractor.sentences[-batch.sentences_new:])

    # ------------------------------------------------------------------
    # Drift telemetry
    # ------------------------------------------------------------------
    def _drift_stats(self, batch: BatchExtraction) -> DriftStats:
        kb = self._extractor.kb
        if not batch.new_pairs:
            return DriftStats(new_pairs=0, conflicted=0, fraction=0.0)
        exclusion = self._analysis.exclusion(kb)
        per_concept: dict[str, list[int]] = {}
        conflicted = 0
        for pair in batch.new_pairs:
            counts = per_concept.setdefault(pair.concept, [0, 0])
            counts[0] += 1
            if pair in kb and exclusion.exclusive_concepts_containing(
                kb, pair.concept, pair.instance
            ):
                counts[1] += 1
                conflicted += 1
        return DriftStats(
            new_pairs=len(batch.new_pairs),
            conflicted=conflicted,
            fraction=conflicted / len(batch.new_pairs),
            per_concept=per_concept,
        )

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------
    def _clean(
        self, reason: str
    ) -> tuple[CleaningReport, list[list], FrozenEmbedding | None]:
        """Run one pass; also returns the basis it fitted, if it did."""
        kb = self._extractor.kb
        if reason != "drift":
            self._use_basis(None)
        basis_before = self._refit_cache.embedding
        cleaner = self._cleaner_factory(self._refit_cache)
        version_before = kb.version
        # A drift pass runs one round: what it leaves, the next pass's
        # first round finds.  Staleness and forced passes converge.
        budget = {"max_rounds": 1} if reason == "drift" else {}
        result = cleaner.clean(kb, self._extractor.corpus(), **budget)
        report = CleaningReport(
            reason=reason,
            removed_pairs=result.num_removed,
            records_rolled_back=result.records_rolled_back,
            rounds=result.rounds,
            # RoundStats' fields in order, the check list as its length.
            round_stats=[
                dict(vars(stats), sentence_checks=len(stats.sentence_checks))
                for stats in result.details.get("rounds", [])
            ],
        )
        self._cleaned(version_before)
        fitted = self._refit_cache.embedding
        return report, result.rollback_ops, (
            None if fitted is basis_before else fitted
        )

    def _use_basis(
        self, embedding: FrozenEmbedding | None, name: str | None = None
    ) -> None:
        """Start a fresh refit cache holding ``embedding`` (file ``name``)."""
        self._refit_cache = DetectorRefitCache()
        self._refit_cache.embedding = embedding
        self._basis = name

    def _cleaned(self, version_before: int) -> None:
        """Resync extraction to a live or replayed pass; staleness resets."""
        kb = self._extractor.kb
        self._extractor.resync_visible(kb.dirty_concepts_since(version_before))
        self._staleness = 0

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Write a snapshot now (and truncate the covered journal)."""
        if self._store is None:
            raise ServiceError("session has no checkpoint_dir")
        self._check_committed()
        with self._ctx.span("checkpoint.save", seq=self._seq) as span:
            written = self._store.save_snapshot(
                seq=self._seq,
                kb=self._extractor.kb,
                sentences=self._extractor.sentences,
                meta={
                    "iteration": self._extractor.iteration,
                    "batches": self._extractor.batches,
                    "pool_sids": list(self._extractor.unresolved_sids()),
                    "since_clean": self._staleness,
                    "cleanings": self.cleanings,
                    "reports": [r.to_dict() for r in self._reports],
                },
                basis=self._basis,
            )
            for counter, value in asdict(written).items():
                span.add(counter, value)
        self._last_snapshot_seq = self._seq

    @collector_paused
    def _restore(self) -> None:
        """Resume: load the snapshot, then replay the journal tail."""
        assert self._store is not None
        ctx = self._ctx
        with ctx.span("session.restore") as span:
            with ctx.span("checkpoint.load"):
                snapshot = self._store.load_snapshot()
            if snapshot is not None:
                self._adopt_snapshot(*snapshot)
            with ctx.span("journal.replay") as replay_span:
                for entry in self._store.journal.entries(after_seq=self._seq):
                    self._replay_entry(entry)
                    replay_span.add("entries")
            span.set(
                batches=len(self._reports),
                cleanings=self.cleanings,
                total_pairs=len(self.kb),
            )

    def _adopt_snapshot(
        self, kb: KnowledgeBase, sentences: list[Sentence], meta: dict
    ) -> None:
        self._extractor = IncrementalExtractor(
            self._config.extraction, kb=kb, context=self._ctx
        )
        self._extractor.restore(
            sentences,
            meta["pool_sids"],
            meta["iteration"],
            meta["batches"],
        )
        source = (
            self._store.directory / f"snapshot-{meta['seq']}" / "META.json"
        )
        self._reports = [
            _decode_report(payload, source, position)
            for position, payload in enumerate(meta["reports"], start=1)
        ]
        if meta["cleanings"] != self.cleanings:
            raise ServiceError(
                f"{source} promises {meta['cleanings']} cleaning passes, "
                f"its reports hold {self.cleanings}"
            )
        name = meta.get("embedding")
        self._use_basis(
            None if name is None
            else self._store.read_basis(name, f"snapshot-{meta['seq']}"),
            name,
        )
        self._staleness = meta["since_clean"]
        self._seq = meta["seq"]
        self._last_snapshot_seq = meta["seq"]

    def _replay_entry(self, entry: dict) -> None:
        if entry.get("type") != "batch":
            raise ServiceError(
                f"unknown journal entry type {entry.get('type')!r}"
            )
        report = _decode_report(
            entry.get("report"), self._store.journal.path, entry.get("seq")
        )
        named = entry.get("sentences")
        sentences = [] if named is None else self._store.read_batch(named)
        batch = self._extractor.ingest(sentences)
        if batch.total_pairs != report.total_pairs:
            raise ServiceError(
                f"journal replay diverged at seq {entry['seq']}: "
                f"extraction produced {batch.total_pairs} pairs, the "
                f"journal recorded {report.total_pairs} — was the session "
                "restarted with a different configuration?"
            )
        self._staleness += batch.sentences_new
        if report.cleaning is not None:
            kb = self._extractor.kb
            version_before = kb.version
            try:
                replay_clean_ops(kb, entry.get("clean_ops", []))
            except ServiceError as exc:
                raise ServiceError(
                    f"cannot replay the cleaning pass of seq {entry['seq']} "
                    f"in {self._store.journal.path}: {exc}"
                ) from exc
            self._cleaned(version_before)
            # The live pass's basis: a fitted one is in the named file.
            name = entry.get("embedding")
            if name is not None:
                self._use_basis(self._store.read_basis(name), name)
            elif report.cleaning.reason != "drift":
                self._use_basis(None)
        self._seq = entry["seq"]
        self._reports.append(report)

    def removed_pairs(self) -> frozenset[IsAPair]:
        """Pairs removed by the session's cleaning passes so far."""
        return self.kb.removed_pairs()
