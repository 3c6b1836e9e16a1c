"""Tests for the DP-based cleaner on a hand-built drift scenario."""

from __future__ import annotations

import pytest

from repro.cleaning import DPCleaner, dp_cleaner
from repro.corpus.corpus import Corpus
from repro.corpus.sentence import Sentence
from repro.experiments.pipeline import Pipeline, experiment_config
from repro.extraction import SemanticIterativeExtractor
from repro.kb import IsAPair, save_kb
from repro.labeling import DPLabel
from repro.world import paper_world

from ..corpus.helpers import deduplicated
from .uncached import NaiveRoundDPCleaner, UncachedRanker


def _sentence(sid, concepts, instances):
    return Sentence(sid=sid, surface=f"s{sid}", concepts=concepts,
                    instances=instances)


def _corpus():
    """Animal core + chicken-triggered food drift + one accidental error."""
    sentences = [
        # core animals, repeated for solid evidence
        _sentence(0, ("animal",), ("dog", "cat", "chicken")),
        _sentence(1, ("animal",), ("dog", "cat", "chicken")),
        _sentence(2, ("animal",), ("dog", "horse")),
        # food core
        _sentence(3, ("food",), ("pork", "beef", "rice")),
        _sentence(4, ("food",), ("pork", "beef", "noodle")),
        _sentence(5, ("food",), ("rice", "noodle", "chicken")),
        # city core (new york's true home)
        _sentence(6, ("city",), ("new york", "boston")),
        _sentence(7, ("city",), ("new york", "tokyo")),
        # drift: resolved to animal via chicken, truth is food; 'lard' is
        # a food absent from the food core, so it lands under animal only
        _sentence(8, ("animal", "food"), ("pork", "beef", "lard", "chicken")),
        # chained drift: resolvable only once lard is known under animal
        _sentence(9, ("animal", "plant"), ("lard", "ham")),
        # accidental: new york slips under animal via dog's sentence
        _sentence(10, ("animal", "plant"), ("new york", "dog")),
    ]
    return Corpus(tuple(sentences))


def _oracle_detect(kb):
    """A perfect detector for this scenario."""
    labels: dict[str, dict[str, DPLabel]] = {}
    if kb.has_instance("animal", "chicken"):
        labels.setdefault("animal", {})["chicken"] = DPLabel.INTENTIONAL
    if kb.has_instance("animal", "new york"):
        labels.setdefault("animal", {})["new york"] = DPLabel.ACCIDENTAL
    return labels


class TestDPCleaner:
    def _clean(self):
        result = SemanticIterativeExtractor().run(_corpus())
        cleaner = DPCleaner(_oracle_detect)
        report = cleaner.clean(result.kb, result.corpus)
        return result.kb, report

    def test_drift_errors_removed(self):
        kb, _report = self._clean()
        assert not kb.has_instance("animal", "pork")
        assert not kb.has_instance("animal", "beef")
        assert not kb.has_instance("animal", "lard")
        assert not kb.has_instance("animal", "ham")  # cascade

    def test_accidental_dp_removed(self):
        kb, _report = self._clean()
        assert not kb.has_instance("animal", "new york")

    def test_intentional_dp_kept(self):
        kb, _report = self._clean()
        assert kb.has_instance("animal", "chicken")

    def test_correct_pairs_untouched(self):
        kb, _report = self._clean()
        for instance in ("dog", "cat", "horse"):
            assert kb.has_instance("animal", instance)
        for instance in ("pork", "beef", "rice", "noodle", "chicken"):
            assert kb.has_instance("food", instance)
        assert kb.has_instance("city", "new york")

    def test_report_contents(self):
        _kb, report = self._clean()
        assert report.method == "dp_cleaning"
        removed = report.removed_pairs
        assert IsAPair("animal", "pork") in removed
        assert IsAPair("animal", "new york") in removed
        assert report.records_rolled_back >= 2
        assert report.rounds >= 1
        assert {
            pair.instance for pair in removed if pair.concept == "animal"
        } >= {"pork", "beef"}

    def test_sentence_checks_recorded(self):
        _kb, report = self._clean()
        checks = [
            check
            for stats in report.details["rounds"]
            for check in stats.sentence_checks
        ]
        assert any(check.is_drifting for check in checks)

    def test_idempotent_second_run(self):
        kb, _ = self._clean()
        cleaner = DPCleaner(_oracle_detect)
        second = cleaner.clean(kb, deduplicated(_corpus()))
        assert second.num_removed == 0

    def test_well_evidenced_accidental_flag_ignored(self, monkeypatch):
        # Flag a solidly-evidenced pair as accidental: the Property 3
        # guard must protect it.  dog has exactly three sentences, so the
        # cap comes down to one; at the production cap the Definition-4
        # guard alone would keep it.
        monkeypatch.setattr(dp_cleaner, "ACCIDENTAL_MAX_COUNT", 1)

        def bad_detect(kb):
            return {"animal": {"dog": DPLabel.ACCIDENTAL}}

        result = SemanticIterativeExtractor().run(_corpus())
        assert result.kb.count(IsAPair("animal", "dog")) == 3
        cleaner = DPCleaner(bad_detect)
        cleaner.clean(result.kb, result.corpus)
        assert result.kb.has_instance("animal", "dog")

    def test_round_cap_respected(self):
        result = SemanticIterativeExtractor().run(_corpus())
        cleaner = DPCleaner(_oracle_detect)
        report = cleaner.clean(result.kb, result.corpus, max_rounds=1)
        assert report.rounds == 1

    def test_call_budget_caps_the_rounds_of_one_call(self):
        # A budget of 1 runs exactly the first round of the call without
        # one, which converges.
        result = SemanticIterativeExtractor().run(_corpus())
        capped = DPCleaner(_oracle_detect).clean(
            result.kb, result.corpus, max_rounds=1
        )
        _kb, converged = self._clean()
        assert converged.rounds > 1
        assert [vars(stats) for stats in capped.details["rounds"]] == [
            vars(converged.details["rounds"][0])
        ]

    def test_call_budget_must_be_positive(self):
        result = SemanticIterativeExtractor().run(_corpus())
        with pytest.raises(ValueError, match="max_rounds"):
            DPCleaner(_oracle_detect).clean(
                result.kb, result.corpus, max_rounds=0
            )


class TestScoreCacheEquivalence:
    """The score cache must never change outcomes."""

    def _run(self, use_cache: bool):
        result = SemanticIterativeExtractor().run(_corpus())
        if use_cache:
            cleaner = DPCleaner(_oracle_detect)
        else:
            cleaner = DPCleaner(_oracle_detect, ranker=UncachedRanker())
        report = cleaner.clean(result.kb, result.corpus)
        return result.kb, report

    def test_cached_and_uncached_cleaning_identical(self):
        kb_cached, report_cached = self._run(use_cache=True)
        kb_uncached, report_uncached = self._run(use_cache=False)
        assert report_cached.removed_pairs == report_uncached.removed_pairs
        assert (
            report_cached.records_rolled_back
            == report_uncached.records_rolled_back
        )
        assert report_cached.rounds == report_uncached.rounds
        assert set(kb_cached.pairs()) == set(kb_uncached.pairs())

    def test_sentence_checks_bit_identical(self):
        # Eq. 21 scores must match exactly, not just approximately: the
        # cached path re-solves only touched concepts, so any kernel
        # drift between batch sizes would surface here.
        _, report_cached = self._run(use_cache=True)
        _, report_uncached = self._run(use_cache=False)
        checks_cached = [
            check.scores
            for stats in report_cached.details["rounds"]
            for check in stats.sentence_checks
        ]
        checks_uncached = [
            check.scores
            for stats in report_uncached.details["rounds"]
            for check in stats.sentence_checks
        ]
        assert checks_cached == checks_uncached


def _every_animal_intentional(kb):
    """Every alive animal is an Intentional DP: sentences meet many DPs."""
    return {
        "animal": {
            instance: DPLabel.INTENTIONAL
            for instance in kb.instances_of("animal")
        }
    }


def _round_outcome(cleaner, kb, corpus, tmp_path):
    """Every RoundStats field, checks included, and the cleaned KB bytes."""
    report = cleaner.clean(kb, corpus)
    path = tmp_path / f"{type(cleaner).__name__}.jsonl"
    save_kb(kb, path)
    rounds = [vars(stats) for stats in report.details["rounds"]]
    return rounds, path.read_bytes()


class TestNaiveRoundEquivalence:
    """The array collect and Eq. 21 passes change nothing.

    ``NaiveRoundDPCleaner`` collects with one ``records_triggered_by``
    call per DP and scores each checked sentence on its own.
    """

    @pytest.mark.parametrize(
        "detect", [_oracle_detect, _every_animal_intentional]
    )
    def test_fixture_rounds_identical(self, detect, tmp_path):
        outcomes = []
        for cleaner_type in (DPCleaner, NaiveRoundDPCleaner):
            result = SemanticIterativeExtractor().run(_corpus())
            outcomes.append(_round_outcome(
                cleaner_type(detect), result.kb,
                result.corpus, tmp_path,
            ))
        assert outcomes[0] == outcomes[1]
        assert any(stats["sentence_checks"] for stats in outcomes[0][0])

    def test_pipeline_rounds_identical(self, tmp_path):
        outcomes = []
        for cleaner_type in (DPCleaner, NaiveRoundDPCleaner):
            preset = paper_world(seed=3, scale=0.5)
            config = experiment_config(
                num_sentences=1500, seed=3, profiles=preset.profiles
            )
            pipeline = Pipeline(preset=preset, config=config)
            extraction = pipeline.extract()
            cleaner = cleaner_type(
                pipeline.detect_fn(),
                ranker=pipeline.ranker, context=pipeline.context,
                analysis=pipeline.analysis,
            )
            outcomes.append(_round_outcome(
                cleaner, extraction.kb, extraction.corpus, tmp_path
            ))
        assert outcomes[0] == outcomes[1]
        rounds = outcomes[0][0]
        assert len(rounds) > 1 and all(s["sentence_checks"] for s in rounds)
