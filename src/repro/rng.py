"""Deterministic random-number plumbing.

Every stochastic component of the library takes an explicit
:class:`numpy.random.Generator`.  Experiments own a single integer seed and
fan it out to *named substreams* so that adding randomness to one stage never
perturbs another stage:

>>> streams = RandomStreams(seed=7)
>>> corpus_rng = streams.stream("corpus")
>>> noise_rng = streams.stream("noise")

Streams with the same name are identical across runs; streams with different
names are statistically independent (derived via ``numpy`` ``SeedSequence``
entropy spawning keyed on the stream name).
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RandomStreams", "generator_from", "DEFAULT_SEED"]

DEFAULT_SEED = 20140324  # EDBT 2014 opening day; arbitrary but memorable.


def _name_key(name: str) -> int:
    """Map a stream name to a stable 32-bit integer key."""
    return zlib.crc32(name.encode("utf-8"))


def generator_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (uses :data:`DEFAULT_SEED`), an integer seed, or an
    existing generator (returned unchanged).
    """
    if seed is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RandomStreams:
    """Fan a single seed out into independent, named substreams."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed

    @property
    def seed(self) -> int:
        """The root seed this fan-out was created from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named substream.

        Calling :meth:`stream` twice with the same name returns two
        generators with identical state, which makes replaying a single
        stage of a pipeline possible without replaying the others.
        """
        sequence = np.random.SeedSequence(
            entropy=self._seed, spawn_key=(_name_key(name),)
        )
        return np.random.default_rng(sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed})"
