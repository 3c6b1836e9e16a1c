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

__all__ = ["IngestPolicy"]


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
    ) -> str | None:
        """Why a cleaning pass should run after a batch, or ``None``.

        The reason is ``"forced"``, ``"staleness"`` or ``"drift"``.  The
        scheduled trigger is checked before drift (it is the cheap,
        content-independent signal); drift only fires on batches with
        enough new pairs for the fraction to mean anything.
        """
        if forced:
            return "forced"
        if (
            self.staleness_threshold is not None
            and staleness >= self.staleness_threshold
        ):
            return "staleness"
        if (
            self.drift_threshold is not None
            and new_pairs >= self.min_new_pairs
            and drift >= self.drift_threshold
        ):
            return "drift"
        return None

    @classmethod
    def never(cls) -> "IngestPolicy":
        """A policy that never triggers (cleaning only when forced)."""
        return cls(staleness_threshold=None, drift_threshold=None)
