"""Ground-truth world substrate: domains, concepts, instances, polysemy."""

from .builder import WorldBuilder
from .presets import WorldPreset, paper_world, toy_world
from .schema import ConceptSpec, Domain, InstanceSpec, Sense
from .serialize import load_world, save_world
from .taxonomy import World
from .vocabulary import Vocabulary, make_typo

__all__ = [
    "ConceptSpec",
    "Domain",
    "InstanceSpec",
    "Sense",
    "Vocabulary",
    "World",
    "WorldBuilder",
    "WorldPreset",
    "load_world",
    "make_typo",
    "paper_world",
    "save_world",
    "toy_world",
]
