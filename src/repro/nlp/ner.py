"""A simulated named-entity recogniser.

The paper's Type-Checking baseline uses the Stanford NER, which is neither
available offline nor applicable to a synthetic vocabulary.  We substitute a
gazetteer NER backed by the ground-truth world:

* every known instance surface resolves to the coarse type of its *primary*
  sense's domain;
* a configurable confusion model flips the emitted type with probability
  ``1 - accuracy`` (default 0.9 accuracy, in line with reported Stanford NER
  CoNLL figures); real NER mistakes are dominated by *recall* errors
  (an entity dropped to O/MISC) rather than named-type swaps, so a wrong
  tag becomes ``MISC`` with probability ``misc_bias`` and a random other
  type otherwise;
* unknown surfaces (typos, drifted junk) are typed ``MISC``.

The confusion draw is deterministic per surface (hash-seeded), so the same
string always receives the same — possibly wrong — type, as a real
dictionary-backed tagger would behave.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping

import numpy as np

from .types import COARSE_TYPES, EntityType

__all__ = ["SimulatedNER"]


class SimulatedNER:
    """Gazetteer NER with a per-surface deterministic confusion model.

    Parameters
    ----------
    gazetteer:
        Mapping from normalised instance surface to its true coarse type.
    accuracy:
        Probability that a known surface is tagged with its true type.
    seed:
        Root seed for the confusion model.
    """

    def __init__(
        self,
        gazetteer: Mapping[str, EntityType],
        accuracy: float = 0.9,
        misc_bias: float = 0.7,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        if not 0.0 <= misc_bias <= 1.0:
            raise ValueError(f"misc_bias must be in [0, 1], got {misc_bias}")
        self._gazetteer = dict(gazetteer)
        self._accuracy = accuracy
        self._misc_bias = misc_bias
        self._seed = seed
        # surface → tag: the draw is a pure function of the surface, and
        # TCh asks about most surfaces more than once.
        self._tags: dict[str, EntityType] = {}

    @property
    def accuracy(self) -> float:
        """The configured probability of tagging a known surface correctly."""
        return self._accuracy

    def __len__(self) -> int:
        return len(self._gazetteer)

    def __contains__(self, surface: str) -> bool:
        return surface in self._gazetteer

    def tag(self, surface: str) -> EntityType:
        """Return the (possibly confused) coarse type for ``surface``."""
        tag = self._tags.get(surface)
        if tag is None:
            tag = self._tags[surface] = self._draw(surface)
        return tag

    def _draw(self, surface: str) -> EntityType:
        true_type = self._gazetteer.get(surface)
        if true_type is None:
            return EntityType.MISC
        rng = self._surface_rng(surface)
        if rng.random() < self._accuracy:
            return true_type
        if true_type is not EntityType.MISC and rng.random() < self._misc_bias:
            return EntityType.MISC
        alternatives = [t for t in COARSE_TYPES if t is not true_type]
        return alternatives[int(rng.integers(0, len(alternatives)))]

    def _surface_rng(self, surface: str) -> np.random.Generator:
        key = zlib.crc32(surface.encode("utf-8"))
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
        )
