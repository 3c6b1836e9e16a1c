"""Tests for the end-to-end pipeline orchestrator."""

from __future__ import annotations

from repro.cleaning import DPCleaner, MutualExclusionCleaner
from repro.concepts import MutualExclusionIndex
from repro.extraction import SemanticIterativeExtractor
from repro.kb import KnowledgeBase, save_kb
from repro.labeling import DPLabel

from ..runtime.spans import find_span
from ..service.conftest import make_pipeline


def _kb_bytes(kb: KnowledgeBase, path) -> bytes:
    save_kb(kb, path)
    return path.read_bytes()


class TestPipeline:
    def test_corpus_cached(self, small_pipeline):
        corpus = small_pipeline.corpus()
        assert corpus is small_pipeline.corpus()
        requested = small_pipeline.config.corpus.num_sentences
        assert len(corpus) >= 0.9 * requested

    def test_extractions_independent(self, small_pipeline):
        a = small_pipeline.extract()
        b = small_pipeline.extract()
        assert a.kb is not b.kb
        assert set(a.kb.pairs()) == set(b.kb.pairs())
        assert a.total_pairs > 1000
        assert a.iterations >= 5

    def test_artifacts_complete(self, small_pipeline, small_artifacts):
        assert len(small_artifacts.kb) > 1000
        assert small_artifacts.seeds.counts()
        concepts = small_pipeline.analysis_concepts(small_artifacts.kb)
        assert len(small_artifacts.scores) == len(concepts)
        assert len(small_artifacts.matrices) > 10
        assert small_artifacts.verified

    def test_analysis_concepts_exclude_junk(self, small_pipeline, small_artifacts):
        world = small_artifacts.world
        for concept in small_pipeline.analysis_concepts(small_artifacts.kb):
            assert concept in world

    def test_drift_emerged(self, small_artifacts):
        truth = small_artifacts.truth
        kb = small_artifacts.kb
        errors = sum(
            1
            for concept in small_artifacts.target_concepts
            for instance in kb.instances_of(concept)
            if truth.is_error(concept, instance)
        )
        assert errors > 200

    def test_animal_and_food_are_mutually_exclusive(self, small_pipeline):
        index = MutualExclusionIndex(small_pipeline.extract().kb)
        assert index.exclusive("animal", "food")

    def test_two_dp_cleaning_rounds_remove_pairs(self, small_pipeline):
        extraction = small_pipeline.extract()
        cleaner = DPCleaner(
            small_pipeline.detect_fn(),
            ranker=small_pipeline.ranker,
            context=small_pipeline.context,
            analysis=small_pipeline.analysis,
        )
        result = cleaner.clean(extraction.kb, extraction.corpus, max_rounds=2)
        assert result.num_removed > 100
        first, second = result.details["rounds"]
        # Round one rolls back detected Accidental DPs with their cascades;
        # round two refits detection on the KB those rollbacks changed.
        assert first.accidental_dps > 0 and first.pairs_removed > 0
        assert second.accidental_dps + second.intentional_dps > 0

    def test_detect_fn_returns_labels(self, small_pipeline):
        detect = small_pipeline.detect_fn()
        extraction = small_pipeline.extract()
        labels = detect(extraction.kb)
        assert labels
        flat = [l for by in labels.values() for l in by.values()]
        assert any(l is DPLabel.ACCIDENTAL for l in flat)
        assert any(l is DPLabel.NON_DP for l in flat)

    def test_ner_cached_per_accuracy(self, small_artifacts):
        a = small_artifacts.ner(0.9)
        assert a is small_artifacts.ner(0.9)
        assert a is not small_artifacts.ner(0.95)

    def test_verified_sample_is_truthful(self, small_artifacts):
        world = small_artifacts.world
        for pair in small_artifacts.verified:
            assert world.is_member(pair.concept, pair.instance)


class TestExtractOnce:
    def test_extractor_runs_once_and_each_call_reads_fresh(self, tmp_path):
        pipeline = make_pipeline()
        tracer = pipeline.context.ensure_tracer()
        fresh = SemanticIterativeExtractor(pipeline.config.extraction).run(
            pipeline.corpus()
        )
        expected = _kb_bytes(fresh.kb, tmp_path / "fresh")
        for call in range(3):
            extraction = pipeline.extract()
            assert _kb_bytes(extraction.kb, tmp_path / f"{call}") == expected
            assert extraction.log.entries == fresh.log.entries
            assert extraction.unresolved_sids == fresh.unresolved_sids
            # The next call must not see what a cleaner did to this one.
            cleaned = MutualExclusionCleaner().clean(
                extraction.kb, extraction.corpus
            )
            assert cleaned.num_removed > 0
        names = [span.name for span in tracer.spans()]
        assert names.count("extract") == 1
        assert names.count("kb.copy") == 3
        copy_span = find_span(tracer, "kb.copy")
        assert copy_span.counters == {
            "records": fresh.kb.num_records, "pairs": len(fresh.kb)
        }

    def test_dp_cleaning_a_copy_matches_a_fresh_run(self, tmp_path):
        # As in Table 3: analysis reads one copy, the cleaner gets another.
        pipeline = make_pipeline()
        pipeline.analyze(fit_detector=False)
        copied = pipeline.extract()
        copied_result = pipeline.dp_cleaner().clean(
            copied.kb, copied.corpus
        )
        other = make_pipeline()
        fresh = SemanticIterativeExtractor(
            other.config.extraction, context=other.context
        ).run(other.corpus())
        fresh_result = other.dp_cleaner().clean(fresh.kb, fresh.corpus)
        assert copied_result.num_removed > 0
        assert _kb_bytes(copied.kb, tmp_path / "copy") == _kb_bytes(
            fresh.kb, tmp_path / "fresh"
        )
        assert (
            copied_result.details["rounds"] == fresh_result.details["rounds"]
        )


class TestDiagnose:
    def test_known_instance(self, small_artifacts):
        kb = small_artifacts.kb
        concept = "animal"
        instance = next(iter(kb.instances_of(concept)))
        report = small_artifacts.diagnose(concept, instance)
        assert report["in_kb"]
        assert report["evidence"]["count"] >= 1
        assert len(report["features"]) == 4
        assert isinstance(report["truth"]["correct"], bool)

    def test_unknown_instance(self, small_artifacts):
        report = small_artifacts.diagnose("animal", "no-such-instance")
        assert not report["in_kb"]
        assert "evidence" not in report
        assert report["truth"]["correct"] is False
