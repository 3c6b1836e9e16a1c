"""DP-based cleaning (§4): the paper's primary contribution.

Each cleaning round:

1. a detection callback classifies every (concept, instance) — in the full
   pipeline this is a freshly fitted :class:`~repro.learning.DPDetector`;
2. **Accidental DPs** are dropped and everything they triggered rolls back
   (cascading, §4.2);
3. for every sentence triggered by an **Intentional DP**, Eq. 21 re-scores
   the candidate concepts with current random-walk scores; losing
   extractions roll back (cascading).

Rounds repeat — removing early-iteration DPs exposes and removes the later
DPs they fed — until a round finds nothing to clean or the round cap is
reached.  The cap is ``CleaningConfig.max_cleaning_rounds`` unless the
caller passes its own budget for one call (an ingest session gives a
drift-triggered pass one round; see :mod:`repro.service.session`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable, Mapping

from ..analysis.cache import AnalysisCache
from ..config import CleaningConfig
from ..corpus.corpus import Corpus
from ..kb.pair import IsAPair
from ..kb.record import ExtractionRecord
from ..kb.rollback import RollbackEngine
from ..kb.store import KnowledgeBase
from ..labeling.labels import DPLabel
from ..ranking.random_walk import RandomWalkRanker
from ..runtime.collector import collector_paused
from ..runtime.context import NULL_CONTEXT, RunContext
from .base import BaseCleaner, CleaningResult
from .intentional import SentenceCheck, build_check, score_sentence

__all__ = ["DPCleaner", "RoundStats", "DetectFn"]

#: concept → instance → label for the current knowledge base.
DetectFn = Callable[[KnowledgeBase], Mapping[str, Mapping[str, DPLabel]]]

_MemoEntry = tuple[
    tuple[str, ...], tuple[int, ...], dict[str, float],
    dict[str, SentenceCheck],
]


@dataclass
class RoundStats:
    """What one cleaning round did."""

    round_index: int
    intentional_dps: int = 0
    accidental_dps: int = 0
    records_rolled_back: int = 0
    pairs_removed: int = 0
    sentence_checks: list[SentenceCheck] = field(default_factory=list)


class DPCleaner(BaseCleaner):
    """Iterative DP-based cleaning with cascading rollback."""

    name = "dp_cleaning"

    def __init__(
        self,
        detect_fn: DetectFn,
        config: CleaningConfig | None = None,
        ranker: RandomWalkRanker | None = None,
        engine_factory: Callable[[KnowledgeBase], RollbackEngine] | None = None,
        context: RunContext | None = None,
        analysis: AnalysisCache | None = None,
    ) -> None:
        self._detect_fn = detect_fn
        self._config = config or CleaningConfig()
        # Instrumentation only: spans and their counters.
        self._ctx = context or NULL_CONTEXT
        # The guards read the per-KB MutualExclusionIndex through this
        # cache.  Passing the cache detection refreshes (as
        # Pipeline.dp_cleaner does) makes detection and the guards consult
        # the *same* index; without one the cleaner keeps a private cache.
        self._analysis = analysis or AnalysisCache(context=self._ctx)
        # The streaming service journals cleaning outcomes by injecting a
        # rollback engine that records the semantic operations it is asked
        # to perform (see repro.service.journal); anything exposing
        # rollback_pair/rollback_records with RollbackEngine semantics
        # qualifies.
        self._engine_factory = engine_factory or RollbackEngine
        # The cleaner issues two score_all calls per round over a KB it
        # mutates incrementally; the ranker's mutation-versioned cache
        # (see Ranker.score_all) re-ranks only the concepts the rollbacks
        # touched.  Passing the ranker detection scores with shares its
        # warm cache.
        self._ranker = ranker or RandomWalkRanker()
        # Eq. 21 sentence scorings carried across rounds: keyed by sid,
        # valid while every candidate concept's KB version is unchanged
        # (the ranker's versioned cache then guarantees identical score
        # rows, so the recomputation would be bit-identical).  Entries are
        # ``(candidate concepts, their versions at scoring, scores,
        # chosen concept → verdict)`` and are validated when looked up.
        self._check_memo: dict[int, _MemoEntry] = {}

    @collector_paused
    def clean(
        self,
        kb: KnowledgeBase,
        corpus: Corpus,
        max_rounds: int | None = None,
    ) -> CleaningResult:
        """Clean ``kb`` in rounds until one removes nothing.

        ``max_rounds`` caps the rounds of this call; ``None`` uses
        ``CleaningConfig.max_cleaning_rounds``.
        """
        if max_rounds is None:
            max_rounds = self._config.max_cleaning_rounds
        elif max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        before = kb.removed_pairs()
        by_sid = corpus.by_sid()
        self._check_memo = {}
        engine = self._engine_factory(kb)
        rounds: list[RoundStats] = []
        total_rolled = 0
        ctx = self._ctx
        with ctx.span("clean", method=self.name) as span:
            for round_index in range(1, max_rounds + 1):
                with ctx.span(
                    "clean.round", round=round_index
                ) as round_span:
                    stats = self._run_round(kb, by_sid, engine, round_index)
                    counters = {
                        "intentional_dps": stats.intentional_dps,
                        "accidental_dps": stats.accidental_dps,
                        "pairs_removed": stats.pairs_removed,
                        "records_rolled_back": stats.records_rolled_back,
                        "sentence_checks": len(stats.sentence_checks),
                    }
                    for counter, value in counters.items():
                        round_span.add(counter, value)
                rounds.append(stats)
                total_rolled += stats.records_rolled_back
                if (
                    stats.pairs_removed == 0
                    and stats.records_rolled_back == 0
                ):
                    break
            span.add("rounds", len(rounds))
            span.add("records_rolled_back", total_rolled)
        return self._result(
            self.name,
            before,
            kb,
            records_rolled_back=total_rolled,
            rounds=len(rounds),
            details={"rounds": rounds},
        )

    # ------------------------------------------------------------------
    # One round: detect, drop accidental DPs, collect, check
    # ------------------------------------------------------------------
    def _run_round(
        self,
        kb: KnowledgeBase,
        by_sid: Mapping[int, "object"],
        engine: RollbackEngine,
        round_index: int,
    ) -> RoundStats:
        ctx = self._ctx
        stats = RoundStats(round_index=round_index)
        with ctx.span("clean.detect"):
            intentional, accidental = self._detect(kb)
        stats.accidental_dps = len(accidental)
        stats.intentional_dps = len(intentional)
        self._drop_accidental(kb, engine, accidental, intentional, stats)
        with ctx.span("clean.collect"):
            entries, check_scores = self._collect(kb, by_sid, intentional)
        with ctx.span("clean.check"):
            self._check(kb, by_sid, engine, entries, check_scores, stats)
        return stats

    def _detect(
        self, kb: KnowledgeBase
    ) -> tuple[list[IsAPair], list[IsAPair]]:
        """Refit detection; the (intentional, accidental) DPs still alive."""
        detections = self._detect_fn(kb)
        intentional: list[IsAPair] = []
        accidental: list[IsAPair] = []
        acc_label = DPLabel.ACCIDENTAL
        int_label = DPLabel.INTENTIONAL
        for concept, labels in detections.items():
            alive = kb.instance_view(concept)
            for instance, label in labels.items():
                if label is acc_label:
                    if instance in alive:
                        accidental.append(IsAPair(concept, instance))
                elif label is int_label:
                    if instance in alive:
                        intentional.append(IsAPair(concept, instance))
        return intentional, accidental

    def _drop_accidental(
        self,
        kb: KnowledgeBase,
        engine: RollbackEngine,
        accidental: list[IsAPair],
        intentional: list[IsAPair],
        stats: RoundStats,
    ) -> None:
        """Roll back the accidental DPs the guards let through.

        The ones a guard keeps are appended to ``intentional``.
        """
        # Scores for the weaker-side test below.  The exclusion refresh is
        # a no-op when detection just refreshed the shared index (refresh
        # == rebuild is pinned by the concepts property tests).
        exclusion = self._analysis.exclusion(kb)
        relevant = {pair.concept for pair in intentional}
        relevant.update(pair.concept for pair in accidental)
        for pair in accidental:
            relevant.update(
                exclusion.exclusive_concepts_containing(
                    kb, pair.concept, pair.instance
                )
            )
        scores = self._ranker.score_all(kb, sorted(relevant))

        def relative_score(concept: str, instance: str) -> float:
            concept_scores = scores.get(concept, {})
            if not concept_scores:
                return 0.0
            return concept_scores.get(instance, 0.0) * len(concept_scores)

        # Accidental DPs: drop the pair + everything it activated.
        # Two definition-level guards protect against detector false
        # positives (whose cascades would nuke correct knowledge):
        # Property 3 — a real Accidental DP rests on one or two sentences;
        # Definition 4 — it is an instance of *another* class accidentally
        # extracted here, so it must appear under a mutually exclusive
        # concept.
        for pair in sorted(accidental):
            if pair not in kb:
                continue  # removed by an earlier cascade this round
            well_evidenced = kb.count(pair) > self._config.accidental_max_count
            elsewhere = exclusion.exclusive_concepts_containing(
                kb, pair.concept, pair.instance
            )
            # Weaker-side test: the accidental home must score worse than
            # the instance's true home (cf. the paper's New York example:
            # strong under city, one stray sentence under country).
            own = relative_score(pair.concept, pair.instance)
            weaker_side = any(
                relative_score(other, pair.instance) > own
                for other in elsewhere
            )
            if well_evidenced or not weaker_side:
                # Not droppable as accidental — but the detector still
                # considers it a DP, and Eq. 21 arbitration is safe on
                # correct triggers, so check its sentences instead.
                intentional.append(pair)
                continue
            result = engine.rollback_pair(pair)
            stats.records_rolled_back += result.num_records
            stats.pairs_removed += result.num_pairs

    def _collect(
        self,
        kb: KnowledgeBase,
        by_sid: Mapping[int, "object"],
        intentional: list[IsAPair],
    ) -> tuple[list[tuple[str, ExtractionRecord]], dict]:
        """The (trigger, record) entries to check, and their scores.

        Eq. 21 needs scores for *every* candidate concept of the checked
        sentences (not just the DP's own concept), and the accidental
        rollbacks changed the graph, so this re-ranks.  Each record is
        checked once, for the first DP in sorted order that triggered it;
        inactive records and sentences outside the corpus are never
        checked, so they are dropped before they become entries.
        """
        entries: list[tuple[str, ExtractionRecord]] = []
        candidate_concepts: set[str] = set()
        seen_records: set[int] = set()
        triggered = kb.trigger_index()
        active = kb.record_active_flags()
        for pair in sorted(intentional):
            rids = triggered.get(pair)
            if not rids or pair not in kb:
                continue
            for rid in rids:
                if rid in seen_records:
                    continue
                seen_records.add(rid)
                if not active[rid]:
                    continue
                record = kb.record(rid)
                sentence = by_sid.get(record.sid)
                if sentence is None:
                    continue
                entries.append((pair.instance, record))
                candidate_concepts.update(sentence.concepts)
        check_scores = self._ranker.score_all(kb, sorted(candidate_concepts))
        return entries, check_scores

    def _check(
        self,
        kb: KnowledgeBase,
        by_sid: Mapping[int, "object"],
        engine: RollbackEngine,
        entries: list[tuple[str, ExtractionRecord]],
        check_scores: dict,
        stats: RoundStats,
    ) -> None:
        """Eq. 21 over the entries; roll back the losing extractions."""
        # The KB is stable until the rollback below, so concept versions
        # are round constants.  Versions only grow, so a memo entry found
        # stale is replaced, never revived.  Several DPs can trigger
        # records of the same sentence: the scoring (per sid) and each
        # verdict (per sid + chosen concept) are shared, restamped with
        # the trigger at hand.
        memo = self._check_memo
        version = kb.concept_version
        to_roll: list[int] = []
        for trigger, record in entries:
            sid = record.sid
            entry = memo.get(sid)
            if entry is None or tuple(map(version, entry[0])) != entry[1]:
                sentence = by_sid[sid]
                names = sentence.concepts
                entry = memo[sid] = (
                    names,
                    tuple(map(version, names)),
                    score_sentence(sentence, check_scores),
                    {},
                )
            _, _, concept_scores, verdicts = entry
            check = verdicts.get(record.concept)
            if check is None:
                check = build_check(
                    sid, concept_scores, record.concept, trigger
                )
                verdicts[record.concept] = check
            elif check.trigger_instance != trigger:
                check = replace(check, trigger_instance=trigger)
            stats.sentence_checks.append(check)
            if check.is_drifting:
                to_roll.append(record.rid)
        if to_roll:
            result = engine.rollback_records(sorted(to_roll))
            stats.records_rolled_back += result.num_records
            stats.pairs_removed += result.num_pairs
