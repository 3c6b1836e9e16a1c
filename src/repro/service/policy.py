"""When to pay for a cleaning pass: staleness and drift triggers.

Related drift-management designs schedule expensive re-processing off two
independent signals: a **scheduled** trigger (N documents since the last
full pass, which costs nothing to evaluate and guards against slow,
unnoticed drift) and a **measured** trigger (a drift score computed from
the batch that just arrived).  We mirror that split: staleness counts new
sentences since the last clean; drift is the fraction of the batch's new
pairs that landed in mutually-exclusive concepts — exactly the paper's
``f2`` conflict signal, read from the shared
:class:`~repro.concepts.exclusion.MutualExclusionIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CleanDecision", "IngestPolicy", "PolicyMonitor"]


@dataclass(frozen=True)
class CleanDecision:
    """Whether (and why) a cleaning pass should run after a batch."""

    clean: bool
    reason: str | None
    staleness: int
    drift: float


@dataclass(frozen=True)
class IngestPolicy:
    """Trigger thresholds for drift-aware cleaning scheduling.

    Parameters
    ----------
    staleness_threshold:
        Clean when at least this many new (de-duplicated) sentences were
        ingested since the last cleaning pass.  ``0`` cleans after every
        batch; ``None`` disables the scheduled trigger.
    drift_threshold:
        Clean when the batch drift score — the fraction of the batch's
        new pairs whose instance also lives under a mutually exclusive
        concept — reaches this value.  ``None`` disables the drift
        trigger.
    min_new_pairs:
        The drift fraction is noise on tiny batches; it only counts once
        a batch contributes at least this many new pairs.
    """

    staleness_threshold: int | None = 5000
    drift_threshold: float | None = 0.05
    min_new_pairs: int = 20

    def __post_init__(self) -> None:
        if (
            self.staleness_threshold is not None
            and self.staleness_threshold < 0
        ):
            raise ValueError("staleness_threshold must be >= 0 or None")
        if self.drift_threshold is not None and not (
            0.0 <= self.drift_threshold <= 1.0
        ):
            raise ValueError("drift_threshold must be in [0, 1] or None")
        if self.min_new_pairs < 0:
            raise ValueError("min_new_pairs must be >= 0")

    def decide(
        self,
        *,
        staleness: int,
        drift: float,
        new_pairs: int,
        forced: bool = False,
    ) -> CleanDecision:
        """Evaluate the triggers for one just-ingested batch.

        The scheduled trigger is checked first (it is the cheap,
        content-independent signal); drift only fires on batches with
        enough new pairs for the fraction to mean anything.
        """
        reason = None
        if forced:
            reason = "forced"
        elif (
            self.staleness_threshold is not None
            and staleness >= self.staleness_threshold
        ):
            reason = "staleness"
        elif (
            self.drift_threshold is not None
            and new_pairs >= self.min_new_pairs
            and drift >= self.drift_threshold
        ):
            reason = "drift"
        return CleanDecision(
            clean=reason is not None,
            reason=reason,
            staleness=staleness,
            drift=drift,
        )

    @classmethod
    def never(cls) -> "IngestPolicy":
        """A policy that never triggers (cleaning only when forced)."""
        return cls(staleness_threshold=None, drift_threshold=None)


class PolicyMonitor:
    """One session's trigger state: what :meth:`IngestPolicy.decide` reads.

    The session records every batch (:meth:`batch`, live and replayed) and
    every cleaning pass (:meth:`cleaned`) directly, so the state belongs
    to the one session that decides on it — sessions sharing a pipeline
    (and its run context) never see each other's batches.  The policy
    itself stays a pure threshold table.
    """

    def __init__(self) -> None:
        self.staleness = 0
        self.cleanings = 0
        self.last_drift = 0.0
        self.last_new_pairs = 0
        self.drift_totals: dict[str, list[int]] = {}

    def batch(
        self,
        sentences_new: int,
        new_pairs: int,
        drift: float,
        per_concept: dict[str, list[int]],
    ) -> None:
        """Record one ingested batch: staleness grows, drift is measured."""
        self.staleness += sentences_new
        self.last_drift = drift
        self.last_new_pairs = new_pairs
        self.fold(per_concept)

    def cleaned(self) -> None:
        """Record a completed cleaning pass: staleness resets."""
        self.staleness = 0
        self.cleanings += 1

    def decide(
        self, policy: IngestPolicy, forced: bool = False
    ) -> CleanDecision:
        """Evaluate ``policy`` against the accumulated telemetry."""
        return policy.decide(
            staleness=self.staleness,
            drift=self.last_drift,
            new_pairs=self.last_new_pairs,
            forced=forced,
        )

    def restore(self, *, staleness: int, cleanings: int) -> None:
        """Reset the counters a snapshot carries directly."""
        self.staleness = staleness
        self.cleanings = cleanings

    def fold(self, per_concept: dict[str, list[int]]) -> None:
        """Add one batch's per-concept drift counts to the totals.

        Concepts fold in sorted order, so live and resumed sessions build
        totals with the same key order.
        """
        for concept, counts in sorted(per_concept.items()):
            totals = self.drift_totals.setdefault(concept, [0, 0])
            totals[0] += counts[0]
            totals[1] += counts[1]
