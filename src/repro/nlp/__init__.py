"""NLP substrate: tokenisation, coarse entity types, simulated NER."""

from .ner import SimulatedNER
from .tokenizer import normalize, tokenize
from .types import COARSE_TYPES, EntityType

__all__ = [
    "COARSE_TYPES",
    "EntityType",
    "SimulatedNER",
    "normalize",
    "tokenize",
]
