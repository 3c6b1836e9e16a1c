"""Preset worlds.

* :func:`paper_world` — a 20-target-concept world mirroring Table 1 of the
  paper (popular concepts plus one tail concept), with per-concept drift
  intensity profiles so that the error-rate spread of Table 1 is reproduced.
* :func:`toy_world` — a small world for tests and the quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from ..config import ConceptProfile
from ..nlp.types import EntityType
from .builder import WorldBuilder
from .taxonomy import World

__all__ = ["WorldPreset", "paper_world", "toy_world"]


@dataclass(frozen=True)
class WorldPreset:
    """A world plus the generation profiles and evaluation targets."""

    world: World
    target_concepts: tuple[str, ...]
    profiles: Mapping[str, ConceptProfile] = field(default_factory=dict)

    def profile_for(self, concept: str) -> ConceptProfile:
        """Effective profile for a concept (default when unspecified)."""
        return self.profiles.get(concept, ConceptProfile())


# ---------------------------------------------------------------------------
# Table-1-like preset
# ---------------------------------------------------------------------------

#: (concept, domain, size, popularity, drift sources, bridge count,
#:  drift intensity 0..1). Drift intensity scales how much fodder the corpus
#: generator produces for the concept, which controls the Table-1 error mix.
_PAPER_TARGETS: tuple[tuple[str, str, int, float, tuple[str, ...], int, float], ...] = (
    ("animal", "animals", 260, 5.0, ("food", "meat"), 10, 0.55),
    ("asian country", "countries", 60, 2.0, ("asian city",), 6, 0.75),
    ("child", "persons", 220, 4.0, ("disney character",), 12, 0.65),
    ("chinese city", "cities", 62, 1.5, ("chinese province",), 3, 0.40),
    ("chinese food", "foods", 70, 1.5, ("animal",), 4, 0.40),
    ("chinese university", "universities", 32, 0.8, ("chinese company",), 2, 0.32),
    ("computer", "computers", 130, 3.0, ("operating system",), 10, 0.85),
    ("computer software", "software", 95, 2.0, ("computer game",), 4, 0.18),
    ("developing country", "countries", 58, 1.5, ("city",), 3, 0.65),
    ("disney classic", "media", 46, 1.0, ("toy",), 3, 0.45),
    ("key u.s. export", "commodities", 26, 0.3, ("food",), 2, 0.15),
    ("money", "currencies", 85, 2.5, ("commodity",), 6, 0.75),
    ("people", "persons", 65, 1.0, ("organization",), 2, 0.16),
    ("phone", "phones", 95, 2.0, ("company",), 6, 0.35),
    ("president", "persons", 58, 1.2, ("movie character", "company"), 4, 0.30),
    ("religion", "religions", 62, 1.5, ("ethnic group",), 5, 0.50),
    ("student", "persons", 160, 3.0, ("book character",), 4, 0.88),
    ("u.s. state", "states", 52, 1.0, ("u.s. city",), 5, 0.50),
    ("weather", "weather", 72, 1.5, ("disease",), 4, 0.47),
    ("woman", "persons", 215, 4.0, ("movie character",), 8, 0.65),
)

#: Background (non-target) concepts: (concept, domain, size, popularity).
_PAPER_BACKGROUND: tuple[tuple[str, str, int, float], ...] = (
    ("food", "foods", 240, 4.0),
    ("meat", "foods", 60, 1.5),
    ("fruit", "foods", 70, 1.5),
    ("country", "countries", 120, 3.0),
    ("city", "cities", 160, 3.0),
    ("asian city", "cities", 70, 1.5),
    ("u.s. city", "cities", 70, 1.5),
    ("chinese province", "provinces", 40, 1.0),
    ("company", "companies", 200, 4.0),
    ("chinese company", "companies", 60, 1.2),
    ("organization", "organizations", 90, 1.5),
    ("university", "universities", 80, 1.5),
    ("disney character", "characters", 90, 1.8),
    ("movie character", "characters", 120, 2.2),
    ("book character", "characters", 90, 1.6),
    ("movie", "media", 180, 3.0),
    ("toy", "toys", 70, 1.2),
    ("operating system", "software", 50, 1.5),
    ("computer game", "games", 110, 2.0),
    ("commodity", "commodities", 90, 1.8),
    ("ethnic group", "ethnicities", 70, 1.2),
    ("disease", "diseases", 90, 1.5),
    ("plant", "plants", 110, 1.5),
    ("bird", "animals", 70, 1.2),
)

#: Highly-similar sibling concepts (alias, base, overlap).
_PAPER_ALIASES: tuple[tuple[str, str, float], ...] = (
    ("nation", "country", 0.85),
    ("kid", "child", 0.80),
    ("lady", "woman", 0.75),
    ("beast", "animal", 0.70),
    ("firm", "company", 0.85),
    ("pc", "computer", 0.80),
    ("dish", "food", 0.70),
    ("faith", "religion", 0.80),
)

_PAPER_DOMAINS: tuple[tuple[str, EntityType], ...] = (
    ("animals", EntityType.MISC),
    ("foods", EntityType.MISC),
    ("countries", EntityType.LOCATION),
    ("cities", EntityType.LOCATION),
    ("states", EntityType.LOCATION),
    ("provinces", EntityType.LOCATION),
    ("persons", EntityType.PERSON),
    ("characters", EntityType.PERSON),
    ("organizations", EntityType.ORGANIZATION),
    ("companies", EntityType.ORGANIZATION),
    ("universities", EntityType.ORGANIZATION),
    # Product-like classes are common nouns to a CoNLL-style NER: MISC.
    ("computers", EntityType.MISC),
    ("software", EntityType.MISC),
    ("phones", EntityType.MISC),
    ("toys", EntityType.MISC),
    ("games", EntityType.MISC),
    ("currencies", EntityType.MISC),
    ("media", EntityType.MISC),
    ("commodities", EntityType.MISC),
    ("ethnicities", EntityType.MISC),
    ("religions", EntityType.MISC),
    ("weather", EntityType.MISC),
    ("diseases", EntityType.MISC),
    ("plants", EntityType.MISC),
)


def paper_world(seed: int = 20140324, scale: float = 1.0) -> WorldPreset:
    """Build the Table-1-like world with 20 target concepts.

    ``scale`` multiplies concept sizes (0.3 gives a fast CI-sized world;
    1.0 is the default experiment size).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    builder = WorldBuilder(seed)
    for name, coarse_type in _PAPER_DOMAINS:
        builder.add_domain(name, coarse_type)

    def scaled(size: int) -> int:
        return max(6, int(round(size * scale)))

    for name, domain, size, popularity in _PAPER_BACKGROUND:
        builder.add_concept(name, domain, size=scaled(size), popularity=popularity)
    profiles: dict[str, ConceptProfile] = {}
    for name, domain, size, popularity, sources, bridges, intensity in _PAPER_TARGETS:
        builder.add_concept(name, domain, size=scaled(size), popularity=popularity)
        profiles[name] = ConceptProfile(
            ambiguous_rate=min(0.95, 0.55 + 0.40 * intensity),
            drift_rate=min(0.95, 0.55 + 0.40 * intensity),
            bridge_rate=min(0.90, 0.45 + 0.40 * intensity),
            false_fact_rate=0.008 + 0.015 * intensity,
        )
    # Forward channels: each target names its drift sources; the reverse
    # channel pollutes the source with the target's instances at a milder
    # rate, as real bidirectional ambiguity does.
    reverse_sources: dict[str, list[str]] = {}
    for name, _domain, _size, _popularity, sources, bridges, _intensity in _PAPER_TARGETS:
        builder.set_partners(name, list(sources))
        per_source = max(1, int(round(bridges * scale / len(sources))))
        for source in sources:
            builder.add_bridges(source, name, count=per_source)
            reverse_sources.setdefault(source, []).append(name)
    target_names = {name for name, *_ in _PAPER_TARGETS}
    for source, targets in reverse_sources.items():
        if source in target_names:
            continue  # targets keep their configured forward channels
        builder.set_partners(source, targets)
        profiles[source] = ConceptProfile(
            ambiguous_rate=0.60, drift_rate=0.50, bridge_rate=0.45
        )
    for alias, base, overlap in _PAPER_ALIASES:
        builder.add_alias(base, alias, overlap=overlap)
    world = builder.build()
    targets = tuple(name for name, *_ in _PAPER_TARGETS)
    return WorldPreset(world=world, target_concepts=targets, profiles=profiles)


# ---------------------------------------------------------------------------
# Toy preset (tests / quickstart)
# ---------------------------------------------------------------------------

def toy_world(seed: int = 7, bridges: int = 3) -> WorldPreset:
    """A small three-domain world with one drift channel (animal ← food)."""
    builder = WorldBuilder(seed)
    builder.add_domain("animals", EntityType.MISC)
    builder.add_domain("foods", EntityType.MISC)
    builder.add_domain("countries", EntityType.LOCATION)
    builder.add_domain("cities", EntityType.LOCATION)
    builder.add_concept("animal", "animals", size=40, popularity=3.0)
    builder.add_concept("food", "foods", size=35, popularity=3.0)
    builder.add_concept("country", "countries", size=25, popularity=2.0)
    builder.add_concept("city", "cities", size=25, popularity=2.0)
    builder.add_bridges("food", "animal", count=bridges)
    builder.set_partners("animal", ["food"])
    builder.set_partners("country", ["city"])
    builder.add_alias("country", "nation", overlap=0.8)
    world = builder.build()
    profiles = {
        "animal": ConceptProfile(ambiguous_rate=0.45, drift_rate=0.7, bridge_rate=0.4),
        "country": ConceptProfile(
            ambiguous_rate=0.35, drift_rate=0.5, bridge_rate=0.0, false_fact_rate=0.03
        ),
    }
    return WorldPreset(
        world=world, target_concepts=("animal", "country"), profiles=profiles
    )
