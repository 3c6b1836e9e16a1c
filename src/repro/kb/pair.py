"""The isA pair value object."""

from __future__ import annotations

from operator import itemgetter

__all__ = ["IsAPair"]


class IsAPair(tuple):
    """A ``(concept, instance)`` isA assertion, e.g. ``(animal, dog)``.

    Pairs spend their lives as dict/set keys and sort keys, so they are a
    ``tuple`` subclass: hashing, equality and ordering run in C, the hash
    is ``hash((concept, instance))`` and the order is concept, then
    instance.  A pair therefore also equals the plain tuple ``(concept,
    instance)``.  No container mixes the two (the extraction worklist's
    index and the ground-truth label memo key on plain tuples only); keep
    it so rather than rely on the difference.
    """

    __slots__ = ()

    def __new__(cls, concept: str, instance: str) -> IsAPair:
        if not concept:
            raise ValueError("pair concept must be non-empty")
        if not instance:
            raise ValueError("pair instance must be non-empty")
        return tuple.__new__(cls, (concept, instance))

    concept = property(itemgetter(0), doc="The concept (class) name.")
    instance = property(itemgetter(1), doc="The instance (entity) name.")

    def __getnewargs__(self) -> tuple[str, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"IsAPair(concept={self[0]!r}, instance={self[1]!r})"

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return f"({self.instance} isA {self.concept})"
