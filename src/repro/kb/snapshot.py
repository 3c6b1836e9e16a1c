"""Per-iteration extraction logs (the data behind Fig. 5a)."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IterationStats", "IterationLog"]


@dataclass(frozen=True)
class IterationStats:
    """What one extraction iteration contributed."""

    iteration: int
    sentences_resolved: int
    new_pairs: int
    total_pairs: int


@dataclass
class IterationLog:
    """Accumulates :class:`IterationStats` while an extraction runs."""

    entries: list[IterationStats] = field(default_factory=list)

    def record(
        self, iteration: int, sentences_resolved: int, new_pairs: int,
        total_pairs: int,
    ) -> None:
        """Append the stats for one finished iteration."""
        self.entries.append(
            IterationStats(
                iteration=iteration,
                sentences_resolved=sentences_resolved,
                new_pairs=new_pairs,
                total_pairs=total_pairs,
            )
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def iterations(self) -> int:
        """Number of iterations logged."""
        return len(self.entries)
