"""Cross-cutting, property-based invariants over randomly built worlds.

Hypothesis drives the world/corpus parameters; each property asserts an
invariant the whole system relies on:

* extraction never invents pairs for concepts absent from the sentences;
* every non-root record's triggers were known before its iteration;
* rollback never leaves dangling evidence counts;
* the KB's instance↔concept indexes stay mutually consistent.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ConceptProfile, CorpusConfig, ExtractionConfig
from repro.corpus import generate_corpus
from repro.extraction import SemanticIterativeExtractor
from repro.kb import RollbackEngine
from repro.world import toy_world

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _pipeline(seed, sentences, ambiguous_rate, chunks):
    preset = toy_world(seed=seed % 50)
    config = CorpusConfig(
        num_sentences=sentences,
        profiles=preset.profiles,
        default_profile=ConceptProfile(ambiguous_rate=ambiguous_rate),
    )
    corpus = generate_corpus(preset.world, config, seed=seed)
    result = SemanticIterativeExtractor(
        ExtractionConfig(stream_chunks=chunks)
    ).run(corpus)
    return preset, corpus, result


world_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),       # seed
    st.integers(min_value=200, max_value=900),        # sentences
    st.floats(min_value=0.1, max_value=0.8),          # ambiguous rate
    st.integers(min_value=1, max_value=6),            # stream chunks
)


class TestExtractionInvariants:
    @given(world_params)
    @settings(**_SETTINGS)
    def test_pairs_come_from_sentences(self, params):
        _preset, corpus, result = _pipeline(*params)
        allowed: dict[str, set[str]] = {}
        for sentence in corpus:
            for concept in sentence.concepts:
                allowed.setdefault(concept, set()).update(sentence.instances)
        for pair in result.kb.pairs():
            assert pair.instance in allowed.get(pair.concept, set())

    @given(world_params)
    @settings(**_SETTINGS)
    def test_triggers_precede_their_records(self, params):
        _preset, _corpus, result = _pipeline(*params)
        kb = result.kb
        for record in kb.records():
            if not record.triggers:
                continue
            for trigger in record.triggers:
                assert kb.first_iteration(trigger) < record.iteration

    @given(world_params)
    @settings(**_SETTINGS)
    def test_counts_match_active_records(self, params):
        _preset, _corpus, result = _pipeline(*params)
        kb = result.kb
        for pair in kb.pairs():
            producing = kb.records_for_pair(pair)
            assert kb.count(pair) == len(producing)
            assert all(kb.is_active(record.rid) for record in producing)

    @given(world_params)
    @settings(**_SETTINGS)
    def test_indexes_consistent(self, params):
        _preset, _corpus, result = _pipeline(*params)
        kb = result.kb
        for concept in kb.concepts():
            for instance in kb.instances_of(concept):
                assert concept in kb.concepts_with_instance(instance)

    @given(world_params)
    @settings(**_SETTINGS)
    def test_log_totals_monotone(self, params):
        _preset, _corpus, result = _pipeline(*params)
        totals = [entry.total_pairs for entry in result.log]
        assert totals == sorted(totals)


class TestRollbackInvariants:
    @given(world_params)
    @settings(**_SETTINGS)
    def test_rollback_everything_empties_derived_pairs(self, params):
        _preset, _corpus, result = _pipeline(*params)
        kb = result.kb
        engine = RollbackEngine(kb)
        ambiguous_records = [r.rid for r in kb.records() if r.triggers]
        engine.rollback_records(ambiguous_records)
        # Only iteration-1 knowledge may survive.
        for pair in kb.pairs():
            assert kb.first_iteration(pair) == 1
        for pair in kb.pairs():
            assert kb.count(pair) >= 1

    @given(world_params)
    @settings(**_SETTINGS)
    def test_rollback_preserves_index_consistency(self, params):
        _preset, _corpus, result = _pipeline(*params)
        kb = result.kb
        engine = RollbackEngine(kb)
        victims = [r.rid for r in kb.records() if r.triggers][:20]
        engine.rollback_records(victims)
        for concept in kb.concepts():
            for instance in kb.instances_of(concept):
                assert concept in kb.concepts_with_instance(instance)
        removed = kb.removed_pairs()
        for pair in removed:
            assert pair not in kb
