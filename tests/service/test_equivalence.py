"""Streaming ↔ batch equivalence.

The acceptance invariant for the streaming subsystem: a session fed the
full corpus as one batch, with cleaning forced, must reproduce the batch
pipeline (``Pipeline.extract()`` + ``Pipeline.dp_cleaner().clean()``)
bit-identically — same KB bytes, same removed-pair set, same per-round
cleaner counters.  Extraction alone must match
:class:`SemanticIterativeExtractor` exactly, including the iteration log.
"""

from __future__ import annotations

import pytest

from repro.extraction import IncrementalExtractor, SemanticIterativeExtractor
from repro.kb.serialize import save_kb
from repro.service import IngestPolicy

from .conftest import EVERY_BATCH, make_pipeline


def _kb_bytes(kb, tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    save_kb(kb, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def batch_reference(service_corpus, tmp_path_factory):
    """The classic batch run: full extraction, then one cleaning pass."""
    pipeline = make_pipeline()
    extraction = pipeline.extract()
    result = pipeline.dp_cleaner().clean(extraction.kb, extraction.corpus)
    tmp = tmp_path_factory.mktemp("batch-ref")
    return {
        "extraction": extraction,
        "result": result,
        "kb_bytes": _kb_bytes(extraction.kb, tmp, "ref"),
    }


class TestExtractionEquivalence:
    def test_one_batch_matches_batch_extractor(self, service_corpus):
        config = make_pipeline().config.extraction
        batch = SemanticIterativeExtractor(config).run(service_corpus)
        incremental = IncrementalExtractor(config)
        incremental.ingest(service_corpus)
        streamed = incremental.result()
        assert streamed.iterations == batch.iterations
        assert streamed.log == batch.log
        assert set(streamed.kb.pairs()) == set(batch.kb.pairs())
        assert streamed.kb.version == batch.kb.version
        ref = {r.rid: r for r in batch.kb.records(include_inactive=True)}
        got = {r.rid: r for r in streamed.kb.records(include_inactive=True)}
        assert set(ref) == set(got)
        for rid, record in ref.items():
            assert got[rid].concept == record.concept
            assert got[rid].instances == record.instances
            assert got[rid].triggers == record.triggers
            assert got[rid].iteration == record.iteration

    def test_many_small_batches_converge(self, service_corpus):
        """Multi-batch extraction covers the same sentences as one-shot.

        Bit-identity is a single-batch property: with many small batches
        the visible snapshot grows in a different order, so an ambiguous
        sentence may legitimately attach to a different candidate concept.
        What must still hold: the identical core (iteration-1 commits are
        order-independent), every sentence resolved exactly once, and the
        same overall sentence coverage as the one-shot run.
        """
        config = make_pipeline().config.extraction
        batch = SemanticIterativeExtractor(config).run(service_corpus)
        incremental = IncrementalExtractor(config)
        for chunk in service_corpus.batches(250):
            incremental.ingest(chunk)
        batch_core = {
            (r.sid, r.concept, r.instances)
            for r in batch.kb.records() if r.iteration == 1
        }
        streamed_core = {
            (r.sid, r.concept, r.instances)
            for r in incremental.kb.records() if r.iteration == 1
        }
        assert streamed_core == batch_core
        batch_sids = [r.sid for r in batch.kb.records(include_inactive=True)]
        streamed_sids = [
            r.sid for r in incremental.kb.records(include_inactive=True)
        ]
        assert len(streamed_sids) == len(set(streamed_sids))
        assert set(streamed_sids) == set(batch_sids)
        assert set(incremental.unresolved_sids()) == set(
            batch.unresolved_sids
        )


class TestCleaningEquivalence:
    def test_single_batch_forced_clean_is_bit_identical(
        self, service_corpus, batch_reference, tmp_path
    ):
        pipeline = make_pipeline()
        session = pipeline.session(policy=IngestPolicy.never())
        report = session.ingest(service_corpus, force_clean=True)
        reference = batch_reference["result"]
        assert report.cleaning is not None
        assert session.kb.removed_pairs() == (
            batch_reference["extraction"].kb.removed_pairs()
        )
        assert report.cleaning.removed_pairs == reference.num_removed
        assert report.cleaning.rounds == reference.rounds
        ref_rounds = reference.details["rounds"]
        for got, ref in zip(report.cleaning.round_stats, ref_rounds):
            assert got["round_index"] == ref.round_index
            assert got["intentional_dps"] == ref.intentional_dps
            assert got["accidental_dps"] == ref.accidental_dps
            assert got["records_rolled_back"] == ref.records_rolled_back
            assert got["pairs_removed"] == ref.pairs_removed
            assert got["sentence_checks"] == len(ref.sentence_checks)
        assert _kb_bytes(session.kb, tmp_path, "session") == (
            batch_reference["kb_bytes"]
        )
        assert session.kb.version == batch_reference["extraction"].kb.version

    def test_every_batch_policy_cleans_each_batch(self, service_corpus):
        pipeline = make_pipeline()
        session = pipeline.session(policy=EVERY_BATCH)
        reports = [session.ingest(b) for b in service_corpus.batches(500)]
        assert all(r.cleaning is not None for r in reports)
        assert session.cleanings == len(reports)
