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
reached.  The cap is :data:`MAX_ROUNDS` unless the caller passes its own
for one call (an ingest session gives a drift-triggered pass one round;
see :mod:`repro.service.session`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from itertools import chain, repeat
from operator import attrgetter, is_not
from typing import NamedTuple

import numpy as np

from ..analysis.cache import AnalysisCache
from ..corpus.corpus import Corpus
from ..corpus.sentence import Sentence
from ..kb.pair import IsAPair
from ..kb.rollback import RollbackEngine
from ..kb.store import KnowledgeBase
from ..labeling.labels import DPLabel
from ..ranking.random_walk import RandomWalkRanker
from ..runtime.collector import collector_paused
from ..runtime.context import NULL_CONTEXT, RunContext
from .base import BaseCleaner, CleaningResult
from .intentional import SentenceCheck, check_sentences

__all__ = ["DPCleaner", "RoundStats", "DetectFn", "MAX_ROUNDS"]

#: The rounds one :meth:`DPCleaner.clean` call runs at most by default.
MAX_ROUNDS = 10
#: Property 3 (§4.2): an "accidental" vote against a pair from more
#: sentences than this is a detector false positive; its sentences get
#: Eq. 21 checks instead of a rollback.
ACCIDENTAL_MAX_COUNT = 3
#: The detector's non-DP handicap while it drives cleaning: the guards and
#: Eq. 21 absorb false DP flags cheaply, a missed DP leaves its cascade.
CLEANING_NON_DP_BIAS = 1.0

#: concept → instance → label for the current knowledge base.
DetectFn = Callable[[KnowledgeBase], Mapping[str, Mapping[str, DPLabel]]]


class _Claims(NamedTuple):
    """One round's Eq. 21 checks, before they are decided.

    Check ``i`` is record ``rids[i]``, extracted from sentence
    ``sentences[rows[i]]`` and claimed by the Intentional DP ``dps[i]``
    (whose concept the record chose); ``scores`` holds the score row of
    every candidate concept of those sentences.
    """

    rids: np.ndarray
    sentences: list[Sentence]
    rows: np.ndarray
    dps: list[IsAPair]
    scores: dict[str, dict[str, float]]


@dataclass
class RoundStats:
    """What one cleaning round did."""

    round_index: int
    intentional_dps: int = 0
    accidental_dps: int = 0
    records_rolled_back: int = 0
    pairs_removed: int = 0
    #: The round's Eq. 21 checks (a :class:`SentenceChecks` when it ran).
    sentence_checks: Sequence[SentenceCheck] = ()


class DPCleaner(BaseCleaner):
    """Iterative DP-based cleaning with cascading rollback."""

    name = "dp_cleaning"

    def __init__(
        self,
        detect_fn: DetectFn,
        ranker: RandomWalkRanker | None = None,
        context: RunContext | None = None,
        analysis: AnalysisCache | None = None,
    ) -> None:
        self._detect_fn = detect_fn
        # Instrumentation only: spans and their counters.
        self._ctx = context or NULL_CONTEXT
        # The guards read the per-KB MutualExclusionIndex through this
        # cache.  Passing the cache detection refreshes (as
        # Pipeline.dp_cleaner does) makes detection and the guards consult
        # the *same* index; without one the cleaner keeps a private cache.
        self._analysis = analysis or AnalysisCache(context=self._ctx)
        # The cleaner issues two score_all calls per round over a KB it
        # mutates incrementally; the ranker's mutation-versioned cache
        # (see Ranker.score_all) re-ranks only the concepts the rollbacks
        # touched.  Passing the ranker detection scores with shares its
        # warm cache.
        self._ranker = ranker or RandomWalkRanker()

    @collector_paused
    def clean(
        self,
        kb: KnowledgeBase,
        corpus: Corpus,
        max_rounds: int = MAX_ROUNDS,
    ) -> CleaningResult:
        """Clean ``kb`` in rounds until one removes nothing.

        ``max_rounds`` caps the rounds of this call.
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        before = kb.removed_pairs()
        by_sid = corpus.by_sid()
        engine = RollbackEngine(kb)
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
        result = self._result(
            self.name,
            before,
            kb,
            records_rolled_back=total_rolled,
            rounds=len(rounds),
            details={"rounds": rounds},
        )
        result.rollback_ops = engine.ops
        return result

    # ------------------------------------------------------------------
    # One round: detect, drop accidental DPs, collect, check
    # ------------------------------------------------------------------
    def _run_round(
        self,
        kb: KnowledgeBase,
        by_sid: Mapping[int, Sentence],
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
            claims = self._collect(kb, by_sid, intentional)
        with ctx.span("clean.check"):
            self._check(engine, claims, stats)
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
        # Walked once: within a round rollbacks only remove memberships, so
        # the guards below keep the concepts that still hold the instance.
        exclusive = {
            pair: exclusion.exclusive_concepts_containing(
                kb, pair.concept, pair.instance
            )
            for pair in accidental
        }
        relevant = {pair.concept for pair in intentional}
        relevant.update(pair.concept for pair in accidental)
        relevant.update(chain.from_iterable(exclusive.values()))
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
            well_evidenced = kb.count(pair) > ACCIDENTAL_MAX_COUNT
            # Weaker-side test: the accidental home must score worse than
            # the instance's true home (cf. the paper's New York example:
            # strong under city, one stray sentence under country).
            own = relative_score(pair.concept, pair.instance)
            weaker_side = any(
                relative_score(other, pair.instance) > own
                for other in exclusive[pair]
                if kb.has_instance(other, pair.instance)
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
        by_sid: Mapping[int, Sentence],
        intentional: list[IsAPair],
    ) -> _Claims:
        """The records to check, and the scores Eq. 21 needs.

        Eq. 21 needs scores for *every* candidate concept of the checked
        sentences (not just the DP's own concept), and the accidental
        rollbacks changed the graph, so this re-ranks.  Each record is
        checked once, for the first DP in sorted order that triggered it:
        one ordered first-occurrence dedupe of the DPs' triggered rids.
        Inactive records and sentences outside the corpus are never
        checked, so they are dropped before they become checks.
        """
        triggered = kb.trigger_index()
        dps = sorted(
            [pair for pair in intentional if pair in triggered and pair in kb]
        )
        groups = list(map(triggered.__getitem__, dps))
        sizes = list(map(len, groups))
        rids = np.fromiter(
            chain.from_iterable(groups), dtype=np.int64, count=sum(sizes)
        )
        claimant = np.repeat(np.arange(len(dps)), sizes)
        # Keep each rid's first occurrence: its earliest claim.
        order = np.arange(len(rids))
        earliest = np.full(kb.num_records, len(rids))
        np.minimum.at(earliest, rids, order)
        first = earliest[rids] == order
        rids = rids[first]
        claimant = claimant[first]
        active = np.frombuffer(kb.record_active_flags(), dtype=bool)
        keep = active[rids]
        rids = rids[keep]
        claimant = claimant[keep]
        sids, rows = np.unique(kb.record_sids()[rids], return_inverse=True)
        found = list(map(by_sid.get, sids.tolist()))
        present = np.fromiter(
            map(is_not, found, repeat(None)), dtype=bool, count=len(found)
        )
        keep = present[rows]
        sentences = [sentence for sentence in found if sentence is not None]
        candidates = set(
            chain.from_iterable(map(attrgetter("concepts"), sentences))
        )
        return _Claims(
            rids[keep],
            sentences,
            (np.cumsum(present) - 1)[rows[keep]],
            list(map(dps.__getitem__, claimant[keep].tolist())),
            self._ranker.score_all(kb, sorted(candidates)),
        )

    def _check(
        self, engine: RollbackEngine, claims: _Claims, stats: RoundStats
    ) -> None:
        """Eq. 21 over the claims; roll back the losing extractions."""
        checks = check_sentences(
            claims.sentences, claims.rows, claims.dps, claims.scores
        )
        stats.sentence_checks = checks
        to_roll = claims.rids[checks.drifting]
        if len(to_roll):
            result = engine.rollback_records(np.sort(to_roll).tolist())
            stats.records_rolled_back += result.num_records
            stats.pairs_removed += result.num_pairs
