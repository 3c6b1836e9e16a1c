"""Extraction provenance records.

Every sentence the extractor commits to produces one
:class:`ExtractionRecord`: which concept was chosen, which pairs the
sentence yielded, and — crucially for the paper — which already-known pairs
*triggered* the resolution.  Records are the unit of rollback (§4.2).

A record holds only what extraction committed, and never changes after
that.  What rollback changes later — whether the record is still active,
and which of its triggers have died — belongs to the
:class:`~repro.kb.store.KnowledgeBase`, so copies of a knowledge base share
their record objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pair import IsAPair

__all__ = ["ExtractionRecord"]


@dataclass(frozen=True, slots=True)
class ExtractionRecord:
    """Provenance for one committed sentence extraction (immutable).

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
    #: The instances (not pairs) that triggered this record.
    trigger_instances: tuple[str, ...] = field(
        init=False, repr=False, compare=False
    )
    #: The pairs this record contributes evidence for.  Trigger instances
    #: are *inputs* to the extraction, not outputs (the paper calls the
    #: outputs "new generated instances"); excluding them prevents
    #: self-support cycles where a drift error keeps its own trigger alive
    #: through the sentence it appeared in.
    produced: tuple[IsAPair, ...] = field(
        init=False, repr=False, compare=False
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
        trigger_instances = tuple(t.instance for t in self.triggers)
        object.__setattr__(self, "trigger_instances", trigger_instances)
        object.__setattr__(self, "produced", tuple(
            IsAPair(self.concept, e)
            for e in self.instances
            if e not in trigger_instances
        ))
