"""The isA pair value object."""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

__all__ = ["IsAPair", "pairs_under"]


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


def pairs_under(concept: str, instances: Sequence[str]) -> tuple[IsAPair, ...]:
    """``IsAPair(concept, e)`` for each ``e`` in ``instances``.

    The names are checked once for the whole sequence, and the pairs are
    built without a Python-level ``__new__`` call each: a record builds
    its produced pairs here, on every commit and every checkpoint load.
    """
    if not (concept and all(instances)):
        # IsAPair raises its own error, or there are no pairs to build.
        return tuple([IsAPair(concept, e) for e in instances])
    new = tuple.__new__
    return tuple([new(IsAPair, (concept, e)) for e in instances])
