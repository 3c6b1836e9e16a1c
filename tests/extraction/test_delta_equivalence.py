"""Delta-driven resolution is bit-identical to the naive full scan.

Property suite pinning the production extraction loop against the naive
oracle in :mod:`tests.extraction.naive`: across random corpora,
resolution policies, ``stream_chunks`` and batch splits,
``SemanticIterativeExtractor.run`` (one batch) and
``IncrementalExtractor.ingest`` streams (many batches, with cleaning-style
rollbacks between them) produce byte-equal KB saves (records, triggers,
iteration numbers — everything provenance serialises), identical
``IterationLog``s and identical per-batch new pairs.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.config import CorpusConfig, ExtractionConfig
from repro.corpus import Corpus, generate_corpus
from repro.corpus.sentence import Sentence
from repro.extraction import IncrementalExtractor, SemanticIterativeExtractor
from repro.kb.rollback import RollbackEngine
from repro.kb.serialize import save_kb
from repro.runtime import RunContext
from repro.world import toy_world

from .naive import NaiveExtractor, naive_extract

CONCEPTS = ("animal", "food", "plant", "city")
INSTANCES = tuple(f"e{i}" for i in range(10))


@st.composite
def sentences(draw):
    corpus_size = draw(st.integers(min_value=0, max_value=40))
    out = []
    for sid in range(corpus_size):
        concepts = tuple(
            draw(
                st.lists(
                    st.sampled_from(CONCEPTS),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
        )
        instances = tuple(
            draw(
                st.lists(
                    st.sampled_from(INSTANCES),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
        out.append(
            Sentence(
                sid=sid,
                surface=f"s{sid}",
                concepts=concepts,
                instances=instances,
            )
        )
    return out


configs = st.builds(
    ExtractionConfig,
    max_iterations=st.sampled_from([3, 100]),
    policy=st.sampled_from(["nearest", "max_evidence"]),
    stream_chunks=st.sampled_from([1, 2, 3, 7]),
)


def _kb_bytes(kb) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kb.json"
        save_kb(kb, path)
        return path.read_bytes()


def _assert_equivalent(result, oracle):
    assert _kb_bytes(result.kb) == _kb_bytes(oracle.kb)
    assert list(result.log) == list(oracle.log)
    assert result.unresolved_sids == oracle.unresolved_sids
    assert result.iterations == oracle.iterations
    assert result.corpus == oracle.corpus


def _assert_same_batch(batch, oracle_batch):
    # The oracle attempts everything, so it reports no skips or wakes.
    assert replace(batch, sentences_skipped=0, index_hits=0) == oracle_batch


def _assert_same_session(extractor, oracle):
    assert _kb_bytes(extractor.kb) == _kb_bytes(oracle.kb)
    assert list(extractor.log) == list(oracle.log)
    assert extractor.unresolved_sids() == oracle.unresolved_sids()
    assert extractor.iteration == oracle.iteration


class TestBatchEquivalence:
    @given(corpus_sentences=sentences(), config=configs)
    @settings(max_examples=120, deadline=None)
    def test_random_corpora(self, corpus_sentences, config):
        corpus = Corpus(tuple(corpus_sentences))
        result = SemanticIterativeExtractor(config).run(corpus)
        _assert_equivalent(result, naive_extract(corpus, config))

    def test_generated_corpus_with_chunked_arrival(self):
        preset = toy_world(seed=7)
        corpus = generate_corpus(
            preset.world,
            CorpusConfig(num_sentences=800, profiles=preset.profiles),
            seed=11,
        )
        for chunks in (1, 4):
            config = ExtractionConfig(stream_chunks=chunks)
            result = SemanticIterativeExtractor(config).run(corpus)
            _assert_equivalent(result, naive_extract(corpus, config))

    def test_zero_ambiguous_corpus_logs_iteration_one_only(self):
        # No resolution round runs while nothing is pending, whatever the
        # arrival schedule: one logged iteration, one iteration span.
        corpus = Corpus(tuple(
            Sentence(sid=sid, surface=f"s{sid}", concepts=("animal",),
                     instances=(f"e{sid}", f"e{sid + 1}"))
            for sid in range(6)
        ))
        for chunks in (1, 2, 3, 7):
            config = ExtractionConfig(stream_chunks=chunks)
            context = RunContext()
            tracer = context.ensure_tracer()
            result = SemanticIterativeExtractor(config, context).run(corpus)
            assert result.iterations == 1
            assert [
                span.attributes["iteration"]
                for span in tracer.spans()
                if span.name == "extract.iteration"
            ] == [1]
            assert result.unresolved_sids == ()
            _assert_equivalent(result, naive_extract(corpus, config))


class TestIncrementalEquivalence:
    @given(
        corpus_sentences=sentences(),
        config=configs,
        batch_size=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_batch_streams(self, corpus_sentences, config, batch_size):
        extractor = IncrementalExtractor(config)
        oracle = NaiveExtractor(config)
        for start in range(0, len(corpus_sentences), batch_size):
            batch = corpus_sentences[start:start + batch_size]
            _assert_same_batch(extractor.ingest(batch), oracle.ingest(batch))
        _assert_same_session(extractor, oracle)

    @given(
        corpus_sentences=sentences(),
        config=configs,
        batch_size=st.integers(min_value=1, max_value=15),
        rollbacks=st.lists(st.integers(min_value=0, max_value=10_000),
                           max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_new_pairs_with_rollbacks_between_batches(
        self, corpus_sentences, config, batch_size, rollbacks
    ):
        # A batch's new pairs are the pairs alive after it and not before,
        # in commit order — also when cleaning-style rollbacks between
        # batches removed pairs that a later batch re-extracts.
        extractor = IncrementalExtractor(config)
        oracle = NaiveExtractor(config)
        picks = iter(rollbacks)
        for start in range(0, len(corpus_sentences), batch_size):
            batch = corpus_sentences[start:start + batch_size]
            before = set(extractor.kb.pairs())
            got = extractor.ingest(batch)
            _assert_same_batch(got, oracle.ingest(batch))
            assert len(set(got.new_pairs)) == len(got.new_pairs)
            assert set(got.new_pairs) == set(extractor.kb.pairs()) - before
            pick = next(picks, None)
            pairs = sorted(extractor.kb.pairs())
            if pick is None or not pairs:
                continue
            pair = pairs[pick % len(pairs)]
            version = extractor.kb.version
            RollbackEngine(extractor.kb).rollback_pair(pair)
            RollbackEngine(oracle.kb).rollback_pair(pair)
            extractor.resync_visible(
                extractor.kb.dirty_concepts_since(version)
            )
        _assert_same_session(extractor, oracle)

    def test_incremental_matches_batch_extractor_one_shot(self):
        preset = toy_world(seed=7)
        corpus = generate_corpus(
            preset.world,
            CorpusConfig(num_sentences=600, profiles=preset.profiles),
            seed=7,
        )
        batch = SemanticIterativeExtractor(ExtractionConfig()).run(corpus)
        incremental = IncrementalExtractor(ExtractionConfig())
        incremental.ingest(corpus.sentences)
        _assert_equivalent(incremental.result(), batch)
        _assert_equivalent(batch, naive_extract(corpus))
