"""DP label taxonomy."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["DPLabel", "SeedLabel", "label_to_vector"]


class DPLabel(enum.Enum):
    """The three detector classes of §3 (order fixes the y-vector layout)."""

    INTENTIONAL = "intentional"
    ACCIDENTAL = "accidental"
    NON_DP = "non_dp"

    @property
    def is_dp(self) -> bool:
        """True for either DP class."""
        return self is not DPLabel.NON_DP


_ORDER = (DPLabel.INTENTIONAL, DPLabel.ACCIDENTAL, DPLabel.NON_DP)


def label_to_vector(label: DPLabel) -> np.ndarray:
    """One-hot encoding per §3.3.2 ([1,0,0] / [0,1,0] / [0,0,1])."""
    vector = np.zeros(3, dtype=float)
    vector[_ORDER.index(label)] = 1.0
    return vector


@dataclass(frozen=True)
class SeedLabel:
    """An automatically labelled training seed."""

    concept: str
    instance: str
    label: DPLabel
