"""NLP substrate: coarse entity types and simulated NER."""

from .ner import SimulatedNER
from .types import COARSE_TYPES, EntityType

__all__ = [
    "COARSE_TYPES",
    "EntityType",
    "SimulatedNER",
]
