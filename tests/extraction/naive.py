"""The naive full-scan extractor: the equivalence oracle for extraction.

Every round re-attempts every arrived, still-unresolved ambiguous sentence
against a snapshot rebuilt from the knowledge base — no candidate index, no
wake set, no delta tracking.  It follows the per-batch semantics of
:class:`~repro.extraction.IncrementalExtractor` (session-wide de-dup,
iteration-1 core commits, a session-global iteration counter, the
``stream_chunks`` arrival schedule within a batch), so one batch is the
oracle for ``SemanticIterativeExtractor.run`` and many batches are the
oracle for ``IncrementalExtractor.ingest`` streams.  A batch's new pairs
come from the per-commit evidence-count probe.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

from repro.config import ExtractionConfig
from repro.corpus import Corpus
from repro.corpus.sentence import Sentence
from repro.extraction import BatchExtraction, ExtractionResult
from repro.extraction.trigger import resolve
from repro.kb.snapshot import IterationLog
from repro.kb.store import KnowledgeBase

_BY_SID = attrgetter("sid")


class NaiveExtractor:
    def __init__(self, config: ExtractionConfig | None = None) -> None:
        self.config = config or ExtractionConfig()
        self.kb = KnowledgeBase()
        self.log = IterationLog()
        self.iteration = 0
        self._seen: set[str] = set()
        self._sentences: list[Sentence] = []
        self._pool: list[Sentence] = []
        self._batches = 0

    def unresolved_sids(self) -> tuple[int, ...]:
        return tuple(s.sid for s in self._pool)

    def result(self) -> ExtractionResult:
        return ExtractionResult(
            kb=self.kb,
            corpus=Corpus(tuple(self._sentences)),
            log=self.log,
            unresolved_sids=self.unresolved_sids(),
        )

    def ingest(self, sentences: Iterable[Sentence]) -> BatchExtraction:
        config, kb = self.config, self.kb
        raw = list(sentences)
        new = []
        for sentence in raw:
            if sentence.surface not in self._seen:
                self._seen.add(sentence.surface)
                new.append(sentence)
        self._sentences.extend(new)
        core = sorted((s for s in new if not s.is_ambiguous), key=_BY_SID)
        ambiguous = sorted((s for s in new if s.is_ambiguous), key=_BY_SID)
        new_pairs = []

        def commit(sentence, concept, triggers, iteration):
            record = kb.add_extraction(
                sid=sentence.sid, concept=concept,
                instances=sentence.instances, triggers=triggers,
                iteration=iteration,
            )
            new_pairs.extend(p for p in record.produced if kb.count(p) == 1)

        for sentence in core:
            commit(sentence, sentence.concepts[0], (), 1)
        if self.iteration == 0:
            self.iteration = 1
            self.log.record(iteration=1, sentences_resolved=len(core),
                            new_pairs=len(kb), total_pairs=len(kb))

        base = self.iteration
        size = max(1, -(-len(ambiguous) // config.stream_chunks))
        arrival = {
            s.sid: base + 1 + index // size
            for index, s in enumerate(ambiguous)
        }
        last_arrival = base + (config.stream_chunks if ambiguous else 0)
        unresolved = sorted(self._pool + ambiguous, key=_BY_SID)
        resolved_total = 0
        for iteration in range(base + 1, base + config.max_iterations):
            if not unresolved:
                break
            visible = {c: kb.instances_of(c) for c in kb.concepts()}
            pairs_before = len(kb)
            still, resolved = [], 0
            for sentence in unresolved:
                resolution = None
                if arrival.get(sentence.sid, 0) <= iteration:
                    resolution = resolve(
                        sentence, visible, policy=config.policy
                    )
                if resolution is None:
                    still.append(sentence)
                    continue
                commit(sentence, resolution.concept, resolution.triggers,
                       iteration)
                resolved += 1
            unresolved = still
            self.iteration = iteration
            if resolved == 0 and iteration >= last_arrival:
                break
            self.log.record(iteration=iteration, sentences_resolved=resolved,
                            new_pairs=len(kb) - pairs_before,
                            total_pairs=len(kb))
            resolved_total += resolved
        self._pool = unresolved
        self._batches += 1
        return BatchExtraction(
            index=self._batches - 1,
            sentences_seen=len(raw),
            sentences_new=len(new),
            core_resolved=len(core),
            ambiguous_resolved=resolved_total,
            new_pairs=tuple(new_pairs),
            total_pairs=len(kb),
            iterations_run=self.iteration - base,
        )


def naive_extract(
    corpus: Corpus, config: ExtractionConfig | None = None
) -> ExtractionResult:
    """One-shot oracle for :meth:`SemanticIterativeExtractor.run`."""
    extractor = NaiveExtractor(config)
    extractor.ingest(corpus.sentences)
    return extractor.result()
