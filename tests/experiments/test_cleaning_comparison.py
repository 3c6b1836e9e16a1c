"""Integration tests for Table 3 / Table 5: the headline result.

These assert the paper's *qualitative* claims, which are the contract of
the reproduction: DP cleaning must dominate the baselines jointly on
precision and recall while preserving correct knowledge.
"""

from __future__ import annotations

import pytest

from repro.experiments.pipeline import Pipeline, experiment_config
from repro.experiments.table3 import run_table3
from repro.experiments.table5 import run_table5
from repro.world import paper_world


@pytest.fixture(scope="module")
def table3(small_pipeline):
    return run_table3(small_pipeline)


class TestTable3Shape:
    def test_before_cleaning_precision_low(self, table3):
        assert table3.data["Before Cleaning"]["p_corr"] < 0.75

    def test_dp_cleaning_dominates_f1(self, table3):
        def error_f1(row):
            p, r = row["p_error"], row["r_error"]
            return 0.0 if p + r == 0 else 2 * p * r / (p + r)

        data = table3.data
        dp = error_f1(data["DP Cleaning"])
        for method in ("MEx", "TCh", "PRDual-Rank", "RW-Rank"):
            assert dp > error_f1(data[method]), method

    def test_dp_cleaning_restores_precision(self, table3):
        before = table3.data["Before Cleaning"]["p_corr"]
        after = table3.data["DP Cleaning"]["p_corr"]
        assert after > before + 0.2
        assert after > 0.85

    def test_dp_cleaning_preserves_recall(self, table3):
        assert table3.data["DP Cleaning"]["r_corr"] > 0.9

    def test_constraint_baselines_precise_but_shallow(self, table3):
        for method in ("MEx", "TCh"):
            row = table3.data[method]
            assert row["r_error"] < 0.55, method
            assert row["r_corr"] > 0.9, method

    def test_ranking_baselines_sacrifice_correct_pairs(self, table3):
        dp_r_corr = table3.data["DP Cleaning"]["r_corr"]
        assert table3.data["PRDual-Rank"]["r_corr"] < dp_r_corr


class TestTable5Shape:
    @pytest.fixture(scope="class")
    def table5(self, small_pipeline):
        return run_table5(small_pipeline)

    def test_all_targets_present(self, table5):
        assert len(table5.data) == 21  # 20 concepts + Overall

    def test_overall_consistency(self, table5):
        overall = table5.data["Overall"]
        assert overall["p_error"] > 0.8
        assert overall["r_corr"] > 0.9
        assert 0 < overall["p_stc"] <= 1.0

    def test_sentence_checks_precise(self, table5):
        overall = table5.data["Overall"]
        assert overall["p_stc"] > 0.85
        assert overall["r_stc"] > 0.3


class TestCleanerSpans:
    """Each of Table 3's five cleaner runs is one root span."""

    def test_every_cleaner_run_is_a_span(self):
        preset = paper_world(seed=3, scale=0.5)
        pipeline = Pipeline(preset=preset, config=experiment_config(
            num_sentences=1500, seed=3, profiles=preset.profiles
        ))
        tracer = pipeline.context.ensure_tracer()
        run_table3(pipeline)
        runs = [root for root in tracer.roots if root.name == "cleaner.run"]
        assert [span.attributes["method"] for span in runs] == [
            "mex", "tch", "prdualrank", "rw_rank", "dp_cleaning",
        ]
        for span in runs:
            children = [child.name for child in span.children]
            assert children[0] == "kb.copy"
            assert span.counters["pairs_removed"] > 0
        assert "clean" in [child.name for child in runs[-1].children]
