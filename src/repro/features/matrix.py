"""Design matrices for detector training."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ConceptMatrix"]


@dataclass(frozen=True)
class ConceptMatrix:
    """Raw feature matrix for one concept.

    ``x`` has shape ``(n, 4)``; row ``i`` belongs to ``instances[i]``.
    """

    concept: str
    instances: tuple[str, ...]
    x: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape != (len(self.instances), 4):
            raise ValueError(
                f"matrix shape {self.x.shape} does not match "
                f"{len(self.instances)} instances"
            )

    @property
    def size(self) -> int:
        """Number of instances (rows)."""
        return len(self.instances)

    @cached_property
    def row_index(self) -> dict[str, int]:
        """Name → row lookup, built once (``instances`` never changes)."""
        return {name: i for i, name in enumerate(self.instances)}

    def row_of(self, instance: str) -> int:
        """Row index for an instance name."""
        return self.row_index[instance]

