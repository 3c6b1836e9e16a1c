"""Tests for the corpus generator and its drift mechanisms."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import ConceptProfile, CorpusConfig
from repro.corpus import CorpusGenerator, SentenceKind, generate_corpus
from repro.errors import CorpusError
from repro.world import paper_world, toy_world

from .helpers import deduplicated


@pytest.fixture(scope="module")
def preset():
    return toy_world(seed=7)


def _config(**overrides):
    base = dict(num_sentences=1200)
    base.update(overrides)
    return CorpusConfig(**base)


class TestBasics:
    def test_approximate_size(self, preset):
        corpus = generate_corpus(preset.world, _config(duplicate_rate=0.0), seed=1)
        assert 0.9 * 1200 <= len(corpus) <= 1200

    def test_deterministic(self, preset):
        a = generate_corpus(preset.world, _config(), seed=5)
        b = generate_corpus(preset.world, _config(), seed=5)
        assert [s.surface for s in a] == [s.surface for s in b]

    def test_seed_changes_output(self, preset):
        a = generate_corpus(preset.world, _config(), seed=5)
        b = generate_corpus(preset.world, _config(), seed=6)
        assert [s.surface for s in a] != [s.surface for s in b]

    def test_sids_unique_and_dense(self, preset):
        corpus = generate_corpus(preset.world, _config(), seed=1)
        sids = [s.sid for s in corpus]
        assert len(set(sids)) == len(sids)

    def test_every_sentence_has_truth(self, preset):
        corpus = generate_corpus(preset.world, _config(), seed=1)
        assert all(s.truth is not None for s in corpus)

    def test_empty_world_rejected(self):
        from repro.world.taxonomy import World

        with pytest.raises(CorpusError):
            CorpusGenerator(World([], [], []), _config())


class TestKinds:
    def test_kind_mix(self, preset):
        corpus = generate_corpus(
            preset.world, _config(profiles=preset.profiles), seed=1
        )
        counts = Counter(s.truth.kind for s in corpus)
        assert counts[SentenceKind.UNAMBIGUOUS] > 0
        assert counts[SentenceKind.AMBIGUOUS] > 0
        assert counts.get(SentenceKind.MISPARSE, 0) > 0

    def test_zero_ambiguity(self, preset):
        config = _config(
            default_profile=ConceptProfile(ambiguous_rate=0.0),
            profiles={},
            misparse_rate=0.0,
        )
        corpus = generate_corpus(preset.world, config, seed=1)
        assert all(not s.is_ambiguous for s in corpus)

    def test_misparse_candidates_are_instances(self, preset):
        corpus = generate_corpus(preset.world, _config(misparse_rate=0.05), seed=1)
        world = preset.world
        misparses = [
            s for s in corpus if s.truth.kind is SentenceKind.MISPARSE
        ]
        assert misparses
        for sentence in misparses:
            # the naive candidate is an instance surface, not a real concept
            assert sentence.concepts[0] not in world.concepts
            assert sentence.concepts[0] in world.instances


class TestAmbiguousStructure:
    def test_candidates_are_cross_domain(self, preset):
        world = preset.world
        corpus = generate_corpus(
            preset.world, _config(profiles=preset.profiles), seed=1
        )
        for sentence in corpus.ambiguous():
            first, second = sentence.concepts
            assert world.exclusive(first, second)

    def test_truth_concept_is_a_candidate(self, preset):
        corpus = generate_corpus(
            preset.world, _config(profiles=preset.profiles), seed=1
        )
        for sentence in corpus.ambiguous():
            assert sentence.truth.concept in sentence.concepts

    def test_drift_sentences_have_target_nearest(self, preset):
        corpus = generate_corpus(
            preset.world, _config(profiles=preset.profiles), seed=1
        )
        drift = [
            s
            for s in corpus.ambiguous()
            if s.truth.concept == "food" and "animal" in s.concepts
        ]
        assert drift  # the animal <- food channel produced fodder
        for sentence in drift:
            assert sentence.concepts[0] == "animal"  # nearest attachment

    def test_bridges_are_polysemous_members_of_both(self, preset):
        world = preset.world
        corpus = generate_corpus(
            preset.world, _config(profiles=preset.profiles), seed=1
        )
        bridged = [s for s in corpus if s.truth.bridge]
        assert bridged
        for sentence in bridged:
            bridge = sentence.truth.bridge
            assert bridge in sentence.instances
            assert world.is_member(sentence.concepts[0], bridge)
            assert world.is_member(sentence.truth.concept, bridge)


class TestNoise:
    def test_false_facts_are_exclusive_concept_members(self, preset):
        world = preset.world
        config = _config(
            default_profile=ConceptProfile(false_fact_rate=0.2, ambiguous_rate=0.2)
        )
        corpus = generate_corpus(preset.world, config, seed=1)
        contaminated = [s for s in corpus if s.truth.contaminants]
        assert contaminated
        for sentence in contaminated:
            for contaminant in sentence.truth.contaminants:
                assert contaminant in sentence.instances
                assert not world.is_member(sentence.truth.concept, contaminant)

    def test_typos_are_unknown_surfaces(self, preset):
        world = preset.world
        config = _config(
            default_profile=ConceptProfile(typo_rate=0.3, ambiguous_rate=0.0),
            misparse_rate=0.0,
        )
        corpus = generate_corpus(preset.world, config, seed=1)
        typos = [s for s in corpus if s.truth.typos]
        assert typos
        for sentence in typos:
            for typo in sentence.truth.typos:
                assert typo in sentence.instances
                assert world.concepts_of(typo) == frozenset()


class TestInstanceSampling:
    def test_instances_within_bounds(self, preset):
        config = _config(min_instances_per_sentence=2, max_instances_per_sentence=4)
        corpus = generate_corpus(preset.world, config, seed=1)
        for sentence in corpus:
            assert 1 <= len(sentence.instances) <= 4

    def test_no_duplicate_instances_in_sentence(self, preset):
        corpus = generate_corpus(preset.world, _config(), seed=1)
        for sentence in corpus:
            assert len(set(sentence.instances)) == len(sentence.instances)

    def test_popular_instances_appear_more(self, preset):
        world = preset.world
        config = _config(num_sentences=3000, tail_bias_rate=0.0)
        corpus = generate_corpus(preset.world, config, seed=1)
        counts: dict[str, int] = {}
        for sentence in corpus:
            if sentence.truth.concept != "animal":
                continue
            for name in sentence.instances:
                counts[name] = counts.get(name, 0) + 1
        members = sorted(
            world.members("animal"),
            key=lambda m: -world.instance(m).popularity,
        )
        head = sum(counts.get(m, 0) for m in members[:5])
        tail = sum(counts.get(m, 0) for m in members[-5:])
        assert head > tail


class TestDuplication:
    def test_duplicates_share_surface(self, preset):
        config = _config(duplicate_rate=0.5)
        corpus = generate_corpus(preset.world, config, seed=1)
        deduped = deduplicated(corpus)
        assert len(deduped) < len(corpus)

    def test_zero_duplicate_rate(self, preset):
        config = _config(duplicate_rate=0.0)
        corpus = generate_corpus(preset.world, config, seed=1)
        # Residual collisions are possible (same template + same draw), but
        # explicit duplication is off, so the overlap must be tiny.
        assert len(corpus) - len(deduplicated(corpus)) < 0.05 * len(corpus)


class TestBenignCandidateMemo:
    def test_memo_equals_a_fresh_scan_for_every_concept(self):
        world = paper_world(seed=11, scale=1.0).world
        generator = CorpusGenerator(world, _config(), seed=3)
        members = {spec.name for spec in world.iter_concepts() if spec.members}
        drawn = 0
        for spec in world.iter_concepts():
            fresh = tuple(
                other.name
                for other in world.iter_concepts()
                if other.domain != spec.domain
                and other.name in members
                and not (world.members(spec.name) & world.members(other.name))
            )
            # Twice: the second read comes from the memo.
            assert generator._benign_candidates(spec.name) == fresh
            assert generator._benign_candidates(spec.name) == fresh
            drawn += bool(fresh)
        assert drawn > 1
