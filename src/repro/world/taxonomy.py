"""The :class:`World`: an immutable, queryable ground-truth taxonomy.

A world answers the questions the rest of the library needs:

* membership — does instance *e* truly belong to concept *C*?
* polysemy — does *e* have senses in several domains (Intentional-DP fuel)?
* exclusivity — are two concepts mutually exclusive in the ground truth
  (different domains)?
* typing — what coarse NER type should the simulated NER see for *e*?

Worlds are built with :class:`~repro.world.builder.WorldBuilder` or one of
the presets in :mod:`repro.world.presets`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from ..errors import UnknownConceptError, UnknownInstanceError, WorldError
from ..nlp.types import EntityType
from .schema import ConceptSpec, Domain, InstanceSpec

__all__ = ["World"]


class World:
    """Immutable ground truth over domains, concepts and instances."""

    def __init__(
        self,
        domains: Iterable[Domain],
        concepts: Iterable[ConceptSpec],
        instances: Iterable[InstanceSpec],
    ) -> None:
        self._domains: dict[str, Domain] = {d.name: d for d in domains}
        self._concepts: dict[str, ConceptSpec] = {c.name: c for c in concepts}
        self._instances: dict[str, InstanceSpec] = {i.name: i for i in instances}
        self._validate()
        self._members: dict[str, frozenset[str]] = {
            name: frozenset(spec.members) for name, spec in self._concepts.items()
        }
        self._concepts_of: dict[str, frozenset[str]] = {
            name: spec.concepts() for name, spec in self._instances.items()
        }

    # ------------------------------------------------------------------
    # Construction checks
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for concept in self._concepts.values():
            if concept.domain not in self._domains:
                raise WorldError(
                    f"concept {concept.name!r} references unknown domain "
                    f"{concept.domain!r}"
                )
            for member in concept.members:
                if member not in self._instances:
                    raise WorldError(
                        f"concept {concept.name!r} lists unknown instance "
                        f"{member!r}"
                    )
            for partner in concept.partners:
                if partner not in self._concepts:
                    raise WorldError(
                        f"concept {concept.name!r} lists unknown partner "
                        f"{partner!r}"
                    )
        for instance in self._instances.values():
            for sense in instance.senses:
                if sense.domain not in self._domains:
                    raise WorldError(
                        f"instance {instance.name!r} references unknown domain "
                        f"{sense.domain!r}"
                    )
                for concept_name in sense.concepts:
                    concept = self._concepts.get(concept_name)
                    if concept is None:
                        raise WorldError(
                            f"instance {instance.name!r} references unknown "
                            f"concept {concept_name!r}"
                        )
                    if concept.domain != sense.domain:
                        raise WorldError(
                            f"instance {instance.name!r} sense in domain "
                            f"{sense.domain!r} lists concept {concept_name!r} "
                            f"from domain {concept.domain!r}"
                        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def domains(self) -> Mapping[str, Domain]:
        """All domains by name."""
        return self._domains

    @property
    def concepts(self) -> Mapping[str, ConceptSpec]:
        """All concepts by name."""
        return self._concepts

    @property
    def instances(self) -> Mapping[str, InstanceSpec]:
        """All instances by name."""
        return self._instances

    def concept(self, name: str) -> ConceptSpec:
        """Look up a concept, raising :class:`UnknownConceptError`."""
        try:
            return self._concepts[name]
        except KeyError:
            raise UnknownConceptError(name) from None

    def instance(self, name: str) -> InstanceSpec:
        """Look up an instance, raising :class:`UnknownInstanceError`."""
        try:
            return self._instances[name]
        except KeyError:
            raise UnknownInstanceError(name) from None

    def __contains__(self, concept_name: str) -> bool:
        return concept_name in self._concepts

    def iter_concepts(self) -> Iterator[ConceptSpec]:
        """Iterate over concepts in insertion order."""
        return iter(self._concepts.values())

    # ------------------------------------------------------------------
    # Ground-truth queries
    # ------------------------------------------------------------------
    def members(self, concept_name: str) -> frozenset[str]:
        """True member instances of a concept."""
        if concept_name not in self._members:
            raise UnknownConceptError(concept_name)
        return self._members[concept_name]

    def is_member(self, concept_name: str, instance_name: str) -> bool:
        """True iff the instance truly belongs to the concept.

        Unknown instance surfaces (e.g. typos) are members of nothing.
        """
        members = self.members(concept_name)
        return instance_name in members

    def concepts_of(self, instance_name: str) -> frozenset[str]:
        """All concepts an instance belongs to (empty for unknown surfaces)."""
        return self._concepts_of.get(instance_name, frozenset())

    def is_polysemous(self, instance_name: str) -> bool:
        """True iff the instance has senses in more than one domain."""
        spec = self._instances.get(instance_name)
        return spec is not None and spec.is_polysemous

    def exclusive(self, concept_a: str, concept_b: str) -> bool:
        """Ground-truth mutual exclusion: concepts from different domains."""
        spec_a = self.concept(concept_a)
        spec_b = self.concept(concept_b)
        return spec_a.domain != spec_b.domain

    # ------------------------------------------------------------------
    # Typing (for the NER substrate)
    # ------------------------------------------------------------------

    def expected_type(self, concept_name: str) -> EntityType:
        """Coarse type a concept's instances should have."""
        spec = self.concept(concept_name)
        return self._domains[spec.domain].coarse_type

    def gazetteer(self) -> dict[str, EntityType]:
        """Instance surface → coarse type mapping for the simulated NER."""
        return {
            name: self._domains[spec.primary_domain].coarse_type
            for name, spec in self._instances.items()
        }

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def polysemous_instances(self) -> frozenset[str]:
        """All instances with senses in more than one domain."""
        return frozenset(
            name for name, spec in self._instances.items() if spec.is_polysemous
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"World(domains={len(self._domains)}, "
            f"concepts={len(self._concepts)}, "
            f"instances={len(self._instances)})"
        )
