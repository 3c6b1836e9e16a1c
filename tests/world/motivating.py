"""The paper's Fig. 1(b) walkthrough world, with real words.

Tests use it to check polysemy and exclusivity on surfaces that read like
the paper's introduction.
"""

from __future__ import annotations

from repro.config import ConceptProfile
from repro.nlp.types import EntityType
from repro.world.presets import WorldPreset
from repro.world.schema import ConceptSpec, Domain, InstanceSpec, Sense
from repro.world.taxonomy import World


def motivating_example_world() -> WorldPreset:
    """The *animal / food / chicken* world from the paper's introduction.

    Hand-written with real surfaces so tests read like the paper.
    *chicken* and *duck* are polysemous bridges between
    ``animal`` and ``food``; *new york* is city-only, ready to become an
    Accidental DP of ``country`` when a false-fact sentence mentions it.
    """
    animals = [
        "dog", "cat", "pig", "horse", "rabbit", "elephant", "dolphin",
        "lion", "camel", "pigeon", "donkey", "chimpanzee", "monkey",
        "snake", "tiger", "giraffe", "chicken", "duck",
    ]
    foods = [
        "pork", "beef", "milk", "meat", "bread", "cheese", "rice",
        "noodle", "butter", "tofu", "chicken", "duck",
    ]
    countries = [
        "france", "portugal", "mauritius", "norway", "japan", "china",
        "brazil", "kenya", "india", "canada",
    ]
    cities = [
        "new york", "london", "paris", "tokyo", "boston", "chicago",
        "shanghai", "mumbai",
    ]
    domains = [
        Domain("animals", EntityType.MISC),
        Domain("foods", EntityType.MISC),
        Domain("countries", EntityType.LOCATION),
        Domain("cities", EntityType.LOCATION),
    ]
    concepts = [
        ConceptSpec("animal", "animals", tuple(animals), popularity=3.0,
                    partners=("food",)),
        ConceptSpec("food", "foods", tuple(foods), popularity=3.0),
        ConceptSpec("country", "countries", tuple(countries), popularity=2.0,
                    partners=("city",)),
        ConceptSpec("city", "cities", tuple(cities), popularity=2.0),
    ]
    instances = []
    weights = {"dog": 3.0, "cat": 3.0, "chicken": 2.5, "duck": 1.5,
               "pork": 2.5, "beef": 2.5, "new york": 3.0, "france": 2.0}
    polysemous = {"chicken", "duck"}
    for name in sorted(set(animals) | set(foods) | set(countries) | set(cities)):
        senses = []
        if name in animals:
            senses.append(Sense("animals", frozenset({"animal"})))
        if name in foods:
            senses.append(Sense("foods", frozenset({"food"})))
        if name in countries:
            senses.append(Sense("countries", frozenset({"country"})))
        if name in cities:
            senses.append(Sense("cities", frozenset({"city"})))
        if name in polysemous:  # primary sense is the animal reading
            senses.sort(key=lambda s: s.domain != "animals")
        instances.append(
            InstanceSpec(name, tuple(senses), popularity=weights.get(name, 1.0))
        )
    world = World(domains, concepts, instances)
    profiles = {
        "animal": ConceptProfile(ambiguous_rate=0.5, drift_rate=0.8, bridge_rate=0.5),
        "country": ConceptProfile(
            ambiguous_rate=0.4, drift_rate=0.6, bridge_rate=0.0, false_fact_rate=0.05
        ),
    }
    return WorldPreset(
        world=world, target_concepts=("animal", "country"), profiles=profiles
    )
