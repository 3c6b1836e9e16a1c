"""Seed labelling: evidence, heuristic rules, label taxonomy."""

from .evidence import EvidenceIndex
from .labels import DPLabel, SeedLabel, label_to_vector
from .rules import SeedLabeler, SeedLabelSet

__all__ = [
    "DPLabel",
    "EvidenceIndex",
    "SeedLabel",
    "SeedLabelSet",
    "SeedLabeler",
    "label_to_vector",
]
