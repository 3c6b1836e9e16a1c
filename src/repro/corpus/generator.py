"""Synthetic Hearst-corpus generation.

The generator never marks a sentence "this one should drift".  It only
plants the *mechanisms* the paper identifies, and drift emerges from the
extractor's behaviour:

* **unambiguous** sentences (``animals such as …``) — iteration-1 material,
  occasionally carrying a false fact or a typo;
* **ambiguous** sentences (``<head> from <modifier> such as …``) whose
  nearest-attachment candidate is the modifier.  *Benign* ones use a random
  cross-domain modifier that shares no instances with the head, so knowledge
  resolves them correctly; *drift fodder* uses a modifier whose world-level
  partner relation (polysemy bridges, accumulated errors) lets the wrong
  candidate win;
* **mis-parse** sentences (``animals other than dogs such as cats``) whose
  recorded candidate structure is the naive wrong parse ``(cat isA dog)``.

Sentence budgets per concept follow concept popularity; instance picks
follow Zipfian instance popularity, so evidence counts have realistic
long tails (Property 3/4 of the paper rely on this).
"""

from __future__ import annotations

import numpy as np

from ..config import ConceptProfile, CorpusConfig
from ..errors import CorpusError
from ..rng import generator_from
from ..world.taxonomy import World
from . import templates
from .corpus import Corpus
from .noise import apply_typo, pick_false_fact, popular_members
from .sentence import Sentence, SentenceKind, SentenceTruth

__all__ = ["CorpusGenerator", "generate_corpus"]

#: Sentences grouped onto one synthetic web page (``Sentence.page_id``).
SENTENCES_PER_PAGE = 4


class CorpusGenerator:
    """Generate a drift-prone Hearst corpus from a ground-truth world."""

    def __init__(
        self,
        world: World,
        config: CorpusConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._world = world
        self._config = config or CorpusConfig()
        self._rng = generator_from(seed)
        self._members: dict[str, list[str]] = {}
        self._weights: dict[str, np.ndarray] = {}
        for spec in world.iter_concepts():
            members = list(spec.members)
            if not members:
                continue
            weights = np.array(
                [world.instance(m).popularity for m in members], dtype=float
            )
            self._members[spec.name] = members
            self._weights[spec.name] = weights / weights.sum()
        self._tail_cache: dict[str, np.ndarray] = {}
        self._benign_cache: dict[str, tuple[str, ...]] = {}
        if not self._members:
            raise CorpusError("world has no concepts with members")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> Corpus:
        """Generate the configured number of sentences (before duplication)."""
        config = self._config
        n_misparse = int(round(config.num_sentences * config.misparse_rate))
        n_body = config.num_sentences - n_misparse
        jobs = self._allocate(n_body)
        sentences: list[tuple[str, tuple[str, ...], tuple[str, ...], SentenceTruth]] = []
        for concept, kind in jobs:
            if kind == "unambiguous":
                built = self._build_unambiguous(concept)
            elif kind == "benign":
                built = self._build_benign(concept)
            else:
                built = self._build_drift(concept)
            if built is not None:
                sentences.append(built)
        for _ in range(n_misparse):
            built = self._build_misparse()
            if built is not None:
                sentences.append(built)
        order = self._rng.permutation(len(sentences))
        final: list[Sentence] = []
        for sid, index in enumerate(order):
            surface, concepts, instances, truth = sentences[int(index)]
            final.append(
                Sentence(
                    sid=sid,
                    surface=surface,
                    concepts=concepts,
                    instances=instances,
                    page_id=sid // SENTENCES_PER_PAGE,
                    truth=truth,
                )
            )
        final.extend(self._duplicates(final))
        return Corpus(tuple(final))

    # ------------------------------------------------------------------
    # Budgeting
    # ------------------------------------------------------------------
    def _allocate(self, n_body: int) -> list[tuple[str, str]]:
        """Expand the sentence budget into (concept, kind) jobs."""
        config = self._config
        names = sorted(self._members)
        raw = np.array(
            [
                self._world.concept(name).popularity
                * config.profile_for(name).sentence_share
                for name in names
            ],
            dtype=float,
        )
        if raw.sum() <= 0:
            raise CorpusError("all concept sentence shares are zero")
        counts = self._rng.multinomial(n_body, raw / raw.sum())
        jobs: list[tuple[str, str]] = []
        for name, count in zip(names, counts):
            profile = config.profile_for(name)
            n_ambiguous = int(round(count * profile.ambiguous_rate))
            has_sources = any(
                source in self._members
                for source in self._world.concept(name).partners
            )
            n_drift = (
                int(round(n_ambiguous * profile.drift_rate)) if has_sources else 0
            )
            n_benign = n_ambiguous - n_drift
            n_plain = count - n_ambiguous
            jobs.extend((name, "unambiguous") for _ in range(n_plain))
            jobs.extend((name, "benign") for _ in range(n_benign))
            jobs.extend((name, "drift") for _ in range(n_drift))
        return jobs

    # ------------------------------------------------------------------
    # Sentence builders
    # ------------------------------------------------------------------
    def _build_unambiguous(self, concept: str):
        profile = self._profile(concept)
        instances = self._sample_instances(concept)
        if instances is None:
            return None
        contaminants: tuple[str, ...] = ()
        typos: tuple[str, ...] = ()
        if self._rng.random() < profile.false_fact_rate:
            false_fact = pick_false_fact(self._world, concept, self._rng)
            if false_fact is not None and false_fact not in instances:
                instances = instances[:-1] + (false_fact,)
                contaminants = (false_fact,)
        if not contaminants and self._rng.random() < profile.typo_rate:
            victim = int(self._rng.integers(0, len(instances)))
            typo = apply_typo(instances[victim], self._rng)
            instances = (
                instances[:victim] + (typo,) + instances[victim + 1 :]
            )
            typos = (typo,)
        surface = templates.render_unambiguous(concept, instances, self._rng)
        truth = SentenceTruth(
            concept=concept,
            kind=SentenceKind.UNAMBIGUOUS,
            contaminants=contaminants,
            typos=typos,
        )
        return surface, (concept,), instances, truth

    def _build_benign(self, concept: str):
        profile = self._profile(concept)
        instances = self._sample_instances(concept)
        if instances is None:
            return None
        modifier = self._benign_modifier(concept)
        if modifier is None:
            return self._build_unambiguous(concept)
        contaminants: tuple[str, ...] = ()
        if self._rng.random() < profile.false_fact_rate:
            false_fact = pick_false_fact(self._world, concept, self._rng)
            if false_fact is not None and false_fact not in instances:
                instances = instances[:-1] + (false_fact,)
                contaminants = (false_fact,)
        surface = templates.render_ambiguous(concept, modifier, instances, self._rng)
        truth = SentenceTruth(
            concept=concept,
            kind=SentenceKind.AMBIGUOUS,
            contaminants=contaminants,
        )
        return surface, (modifier, concept), instances, truth

    def _build_drift(self, target: str):
        """Drift fodder: head = a partner source, modifier = the target."""
        profile = self._profile(target)
        sources = [
            source
            for source in self._world.concept(target).partners
            if source in self._members
        ]
        if not sources:
            return None
        source = sources[int(self._rng.integers(0, len(sources)))]
        # Drift fodder leans on the tail: obscure source instances are not
        # in anyone's core, so these sentences resolve late — through
        # whatever (possibly wrong) knowledge accumulated first.
        tail_rate = min(1.0, self._config.tail_bias_rate * 1.8)
        instances = self._sample_instances(source, tail_rate=tail_rate)
        if instances is None:
            return None
        bridge: str | None = None
        if self._rng.random() < profile.bridge_rate:
            bridge_pool = sorted(
                self._world.members(target) & self._world.members(source)
            )
            if bridge_pool:
                bridge = bridge_pool[int(self._rng.integers(0, len(bridge_pool)))]
                if bridge not in instances:
                    slot = int(self._rng.integers(0, len(instances)))
                    instances = (
                        instances[:slot] + (bridge,) + instances[slot + 1 :]
                    )
        surface = templates.render_ambiguous(source, target, instances, self._rng)
        truth = SentenceTruth(
            concept=source,
            kind=SentenceKind.AMBIGUOUS,
            bridge=bridge,
        )
        return surface, (target, source), instances, truth

    def _build_misparse(self):
        names = sorted(self._members)
        concept = names[int(self._rng.integers(0, len(names)))]
        members = self._members[concept]
        if len(members) < 2:
            return None
        excluded_pool = popular_members(self._world, concept)
        excluded = excluded_pool[int(self._rng.integers(0, len(excluded_pool)))]
        instances = self._sample_instances(concept, maximum=2, exclude={excluded})
        if instances is None:
            return None
        surface = templates.render_misparse(concept, excluded, instances, self._rng)
        truth = SentenceTruth(concept=concept, kind=SentenceKind.MISPARSE)
        # The *recorded* candidate structure is the naive wrong parse:
        # the instances attach to the excluded entity, not the concept.
        return surface, (excluded,), instances, truth

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _profile(self, concept: str) -> ConceptProfile:
        return self._config.profile_for(concept)

    def _sample_instances(
        self,
        concept: str,
        maximum: int | None = None,
        exclude: set[str] | None = None,
        tail_rate: float | None = None,
    ) -> tuple[str, ...] | None:
        members = self._members.get(concept)
        if not members:
            return None
        effective_tail = (
            self._config.tail_bias_rate if tail_rate is None else tail_rate
        )
        if self._rng.random() < effective_tail:
            weights = self._tail_weights(concept)
        else:
            weights = self._weights[concept]
        if exclude:
            mask = np.array([m not in exclude for m in members])
            if mask.sum() < 1:
                return None
            members = [m for m, keep in zip(members, mask) if keep]
            weights = weights[mask]
            weights = weights / weights.sum()
        low = self._config.min_instances_per_sentence
        high = maximum or self._config.max_instances_per_sentence
        high = min(high, len(members))
        low = min(low, high)
        count = int(self._rng.integers(low, high + 1))
        picked = self._rng.choice(len(members), size=count, replace=False, p=weights)
        return tuple(members[int(i)] for i in picked)

    def _tail_weights(self, concept: str) -> np.ndarray:
        """Uniform weights over the least-popular fraction of a concept."""
        cached = self._tail_cache.get(concept)
        if cached is not None:
            return cached
        weights = self._weights[concept]
        keep = max(1, int(round(self._config.tail_fraction * len(weights))))
        threshold = np.sort(weights)[keep - 1]
        tail = (weights <= threshold).astype(float)
        tail /= tail.sum()
        self._tail_cache[concept] = tail
        return tail

    def _benign_modifier(self, concept: str) -> str | None:
        """A cross-domain modifier that shares no members with ``concept``."""
        candidates = self._benign_candidates(concept)
        if not candidates:
            return None
        return candidates[int(self._rng.integers(0, len(candidates)))]

    def _benign_candidates(self, concept: str) -> tuple[str, ...]:
        """The concepts :meth:`_benign_modifier` draws from (memoised).

        They depend only on the world, so each concept scans it once.
        """
        cached = self._benign_cache.get(concept)
        if cached is None:
            own_domain = self._world.concept(concept).domain
            own_members = self._world.members(concept)
            cached = self._benign_cache[concept] = tuple(
                other.name
                for other in self._world.iter_concepts()
                if other.domain != own_domain
                and other.name in self._members
                and not (own_members & self._world.members(other.name))
            )
        return cached

    def _duplicates(self, base: list[Sentence]) -> list[Sentence]:
        """Re-emit some sentences on later pages with fresh sids."""
        config = self._config
        extras: list[Sentence] = []
        next_sid = len(base)
        next_page = (base[-1].page_id + 1) if base else 0
        for sentence in base:
            if self._rng.random() < config.duplicate_rate:
                extras.append(
                    Sentence(
                        sid=next_sid,
                        surface=sentence.surface,
                        concepts=sentence.concepts,
                        instances=sentence.instances,
                        page_id=next_page + len(extras) // SENTENCES_PER_PAGE,
                        truth=sentence.truth,
                    )
                )
                next_sid += 1
        return extras


def generate_corpus(
    world: World,
    config: CorpusConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> Corpus:
    """One-shot convenience wrapper around :class:`CorpusGenerator`."""
    return CorpusGenerator(world, config, seed).generate()
