"""Tests for the iterative extraction engine."""

from __future__ import annotations

import pytest

from repro.config import ConceptProfile, CorpusConfig, ExtractionConfig
from repro.corpus import Corpus, generate_corpus
from repro.corpus.sentence import Sentence
from repro.errors import ExtractionError
from repro.extraction import IncrementalExtractor, SemanticIterativeExtractor
from repro.kb import IsAPair, KnowledgeBase

from ..corpus.helpers import without_truth


def _sentence(sid, concepts, instances):
    return Sentence(sid=sid, surface=f"s{sid}", concepts=concepts,
                    instances=instances)


class TestHandwrittenScenario:
    """The paper's Fig. 1(b) drift walkthrough, end to end."""

    def _corpus(self):
        return Corpus((
            _sentence(0, ("animal",), ("dog", "cat", "chicken")),
            _sentence(1, ("food",), ("bread", "cheese")),
            # drift fodder: truth is food, nearest candidate is animal
            _sentence(2, ("animal", "food"), ("pork", "beef", "chicken")),
            # chained drift: resolvable only after pork lands under animal
            _sentence(3, ("animal", "food"), ("pork", "ham")),
        ))

    def test_core_extraction(self):
        result = SemanticIterativeExtractor().run(self._corpus())
        kb = result.kb
        assert kb.core_instances("animal") == frozenset({"dog", "cat", "chicken"})
        assert kb.core_instances("food") == frozenset({"bread", "cheese"})

    def test_drift_happens_via_bridge(self):
        result = SemanticIterativeExtractor().run(self._corpus())
        kb = result.kb
        assert kb.has_instance("animal", "pork")
        assert kb.has_instance("animal", "beef")

    def test_chained_drift_next_iteration(self):
        result = SemanticIterativeExtractor().run(self._corpus())
        kb = result.kb
        assert kb.has_instance("animal", "ham")
        assert kb.first_iteration(IsAPair("animal", "pork")) == 2
        assert kb.first_iteration(IsAPair("animal", "ham")) == 3

    def test_provenance_triggers(self):
        result = SemanticIterativeExtractor().run(self._corpus())
        kb = result.kb
        subs = kb.sub_instance_counts("animal", "chicken")
        assert set(subs) == {"pork", "beef"}
        subs_pork = kb.sub_instance_counts("animal", "pork")
        assert set(subs_pork) == {"ham"}

    def test_log_progression(self):
        result = SemanticIterativeExtractor().run(self._corpus())
        entries = list(result.log)
        assert entries[0].iteration == 1
        assert entries[0].total_pairs == 5
        assert result.iterations >= 3
        assert result.total_pairs == 8

    def test_unresolved_sentences_reported(self):
        corpus = Corpus((
            _sentence(0, ("animal",), ("dog",)),
            _sentence(1, ("food", "plant"), ("kale", "fern")),
        ))
        result = SemanticIterativeExtractor().run(corpus)
        assert result.unresolved_sids == (1,)


class TestSnapshotSemantics:
    def test_knowledge_not_visible_within_iteration(self):
        # Sentence 1 (lower sid) would trigger sentence 2's resolution, but
        # both arrive in iteration 2; snapshot semantics delays sentence 2
        # to iteration 3.
        corpus = Corpus((
            _sentence(0, ("animal",), ("chicken",)),
            _sentence(1, ("animal", "food"), ("pork", "chicken")),
            _sentence(2, ("animal", "food"), ("pork", "ham")),
        ))
        result = SemanticIterativeExtractor().run(corpus)
        kb = result.kb
        assert kb.first_iteration(IsAPair("animal", "pork")) == 2
        assert kb.first_iteration(IsAPair("animal", "ham")) == 3


class TestStreaming:
    def test_stream_chunks_stretch_iterations(self, toy_preset):
        config = CorpusConfig(
            num_sentences=1500,
            profiles=toy_preset.profiles,
            default_profile=ConceptProfile(ambiguous_rate=0.5),
        )
        corpus = generate_corpus(toy_preset.world, config, seed=11)
        fast = SemanticIterativeExtractor(ExtractionConfig(stream_chunks=1)).run(corpus)
        slow = SemanticIterativeExtractor(ExtractionConfig(stream_chunks=6)).run(corpus)
        assert slow.iterations > fast.iterations
        # Both runs commit the same sentences; streaming yields at least as
        # many distinct pairs because early drift changes later resolutions.
        assert len(list(slow.kb.records())) == len(list(fast.kb.records()))
        assert slow.total_pairs >= fast.total_pairs

    def test_max_iterations_respected(self):
        corpus = Corpus((
            _sentence(0, ("animal",), ("chicken",)),
            _sentence(1, ("animal", "food"), ("pork", "chicken")),
        ))
        result = SemanticIterativeExtractor(
            ExtractionConfig(max_iterations=1)
        ).run(corpus)
        assert result.iterations == 1
        assert result.unresolved_sids == (1,)


class TestIncrementalRestore:
    def test_adopts_a_kb_without_alive_pairs(self):
        """A restored KB is kept even when rollback emptied its pairs."""
        kb = KnowledgeBase()
        record = kb.add_extraction(0, "animal", ("dog",), iteration=1)
        kb.deactivate_record(record.rid)
        assert len(kb) == 0
        extractor = IncrementalExtractor(ExtractionConfig(), kb=kb)
        assert extractor.kb is kb
        assert extractor.kb.num_records == 1


class TestSidConsistency:
    """A sid that comes back with another surface rejects its batch."""

    ANIMALS = Sentence(1, "animals such as dog and cat", ("animal",),
                       ("dog", "cat"))
    CITIES = Sentence(1, "cities such as paris and rome", ("city",),
                      ("paris", "rome"))

    def _assert_rejected(self, extractor, batch):
        before = (len(extractor.kb), len(extractor.sentences),
                  extractor.batches)
        with pytest.raises(ExtractionError) as caught:
            extractor.ingest(batch)
        message = str(caught.value)
        assert "sid 1" in message
        assert self.ANIMALS.surface in message
        assert self.CITIES.surface in message
        assert (len(extractor.kb), len(extractor.sentences),
                extractor.batches) == before

    def test_across_batches(self):
        extractor = IncrementalExtractor(ExtractionConfig())
        extractor.ingest([self.ANIMALS])
        # The identical sentence again is a duplicate, not a conflict.
        assert extractor.ingest([self.ANIMALS]).sentences_new == 0
        self._assert_rejected(extractor, [self.CITIES])
        assert extractor.corpus().by_sid() == {1: self.ANIMALS}

    def test_within_one_batch_commits_nothing(self):
        extractor = IncrementalExtractor(ExtractionConfig())
        self._assert_rejected(extractor, [self.ANIMALS, self.CITIES])
        assert len(extractor.kb) == 0

    def test_after_restore(self):
        first = IncrementalExtractor(ExtractionConfig())
        first.ingest([self.ANIMALS])
        resumed = IncrementalExtractor(ExtractionConfig(), kb=first.kb)
        resumed.restore(first.sentences, (), first.iteration, first.batches)
        self._assert_rejected(resumed, [self.CITIES])


class TestAgainstGeneratedCorpus:
    def test_extraction_never_reads_truth(self, toy_corpus):
        stripped = without_truth(toy_corpus)
        a = SemanticIterativeExtractor().run(toy_corpus)
        b = SemanticIterativeExtractor().run(stripped)
        assert set(a.kb.pairs()) == set(b.kb.pairs())

    def test_drift_emerges(self, toy_preset, toy_extraction):
        world = toy_preset.world
        kb = toy_extraction.kb
        animal = kb.instances_of("animal")
        errors = {e for e in animal if not world.is_member("animal", e)}
        assert len(errors) > 5
        food_members = world.members("food")
        assert any(e in food_members for e in errors)

    def test_core_is_high_precision(self, toy_preset, toy_extraction):
        world = toy_preset.world
        kb = toy_extraction.kb
        core_ok = core_bad = 0
        for concept in ("animal", "food", "country", "city"):
            for instance in kb.core_instances(concept):
                if world.is_member(concept, instance):
                    core_ok += 1
                else:
                    core_bad += 1
        assert core_ok / (core_ok + core_bad) > 0.9
