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

from .pair import IsAPair, pairs_under

__all__ = ["ExtractionRecord"]


class _Slots:
    """The storage of an :class:`ExtractionRecord`, writable only while
    :meth:`ExtractionRecord.__new__` fills it."""

    __slots__ = (
        "rid", "sid", "concept", "instances", "triggers", "iteration",
        "trigger_instances", "produced",
    )


@dataclass(frozen=True, init=False)
class ExtractionRecord(_Slots):
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

    __slots__ = ()

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

    def __new__(
        cls,
        rid: int,
        sid: int,
        concept: str,
        instances: tuple[str, ...],
        triggers: tuple[IsAPair, ...],
        iteration: int,
    ) -> ExtractionRecord:
        if iteration < 1:
            raise ValueError("iteration must be >= 1")
        for trigger in triggers:
            if trigger[0] != concept:
                raise ValueError(
                    f"trigger {trigger} does not match record concept "
                    f"{concept!r}"
                )
        trigger_instances = tuple([trigger[1] for trigger in triggers])
        # Records are built on every commit and every checkpoint load, so
        # the slots are filled as plain writes on a _Slots object, which
        # then becomes the frozen record: a frozen dataclass's own
        # __init__ pays one object.__setattr__ call per field.
        record = _Slots()
        record.rid = rid
        record.sid = sid
        record.concept = concept
        record.instances = instances
        record.triggers = triggers
        record.iteration = iteration
        record.trigger_instances = trigger_instances
        record.produced = pairs_under(concept, [
            e for e in instances if e not in trigger_instances
        ] if triggers else instances)
        record.__class__ = cls
        return record

    def __reduce__(self):
        return type(self), (
            self.rid, self.sid, self.concept, self.instances, self.triggers,
            self.iteration,
        )
