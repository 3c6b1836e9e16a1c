"""Extraction provenance records.

Every sentence the extractor commits to produces one
:class:`ExtractionRecord`: which concept was chosen, which pairs the
sentence yielded, and — crucially for the paper — which already-known pairs
*triggered* the resolution.  Records are the unit of rollback (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pair import IsAPair

__all__ = ["ExtractionRecord"]


@dataclass
class ExtractionRecord:
    """Provenance for one committed sentence extraction.

    Parameters
    ----------
    rid:
        Record id, unique within a knowledge base.
    sid:
        The sentence the extraction came from.
    concept:
        The concept the sentence was resolved to.
    instances:
        All candidate instances committed under ``concept``.
    triggers:
        Known pairs (all under ``concept``) whose presence enabled the
        resolution.  Empty for iteration-1 (unambiguous) extractions.
    iteration:
        Extraction iteration the record was created in (1-based).
    """

    rid: int
    sid: int
    concept: str
    instances: tuple[str, ...]
    triggers: tuple[IsAPair, ...]
    iteration: int
    active: bool = True
    _dead_triggers: set[IsAPair] = field(default_factory=set, repr=False)
    # Lazy caches; ``triggers``/``instances`` never change after creation.
    _trigger_instances: tuple[str, ...] | None = field(
        default=None, repr=False, compare=False
    )
    _produced: tuple[IsAPair, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.iteration < 1:
            raise ValueError("iteration must be >= 1")
        for trigger in self.triggers:
            if trigger.concept != self.concept:
                raise ValueError(
                    f"trigger {trigger} does not match record concept "
                    f"{self.concept!r}"
                )

    def copy(self) -> ExtractionRecord:
        """An independent copy: its own ``active`` flag and dead triggers.

        Every other field is immutable and shared, lazy caches included.
        """
        clone = object.__new__(ExtractionRecord)
        clone.__dict__ = {
            **self.__dict__, "_dead_triggers": set(self._dead_triggers)
        }
        return clone

    @property
    def produced(self) -> tuple[IsAPair, ...]:
        """The pairs this record contributes evidence for.

        Trigger instances are *inputs* to the extraction, not outputs (the
        paper calls the outputs "new generated instances"); excluding them
        prevents self-support cycles where a drift error keeps its own
        trigger alive through the sentence it appeared in.
        """
        cached = self._produced
        if cached is None:
            trigger_instances = set(self.trigger_instances)
            cached = tuple(
                IsAPair(self.concept, e)
                for e in self.instances
                if e not in trigger_instances
            )
            self._produced = cached
        return cached

    @property
    def trigger_instances(self) -> tuple[str, ...]:
        """The instances (not pairs) that triggered this record."""
        cached = self._trigger_instances
        if cached is None:
            cached = tuple(t.instance for t in self.triggers)
            self._trigger_instances = cached
        return cached

    @property
    def is_root(self) -> bool:
        """True for iteration-1 extractions, which need no trigger."""
        return not self.triggers

    def alive_triggers(self) -> tuple[IsAPair, ...]:
        """Triggers whose pairs are still in the knowledge base."""
        return tuple(t for t in self.triggers if t not in self._dead_triggers)

    def dead_triggers(self) -> tuple[IsAPair, ...]:
        """Triggers whose pairs were removed, in trigger order."""
        dead = self._dead_triggers
        if not dead:
            return ()
        return tuple(t for t in self.triggers if t in dead)

    def kill_trigger(self, pair: IsAPair) -> bool:
        """Mark one trigger as removed; returns True if none remain alive."""
        if pair in self.triggers:
            self._dead_triggers.add(pair)
        return not self.is_root and not self.alive_triggers()
