"""Integration tests: every table/figure runner reproduces the paper's shape."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import experiment_names, run_experiment
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5a, run_figure5b, run_figure5c
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table4 import run_table4


class TestRegistry:
    def test_names(self):
        names = experiment_names()
        assert "table3" in names and "figure5a" in names
        assert "ablation_rollback" in names
        assert "threshold_sweep" in names
        assert len(names) == 15

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("table9")


class TestTable1:
    def test_shape(self, small_pipeline):
        result = run_table1(small_pipeline)
        concepts = result.data["concepts"]
        assert len(concepts) == 21  # 20 targets + Overall
        overall = concepts["Overall"]
        assert overall["instances"] > 2000
        # drift produced a substantial overall error rate
        assert 0.2 < overall["error_rate"] < 0.7
        # DP structure: accidental DPs outnumber intentional ones
        assert overall["accidental_dps"] > overall["intentional_dps"] > 0
        assert "key u.s. export" in result.text


class TestTable2:
    def test_random_walk_wins(self, small_pipeline):
        result = run_table2(small_pipeline, ks=(25, 100))
        data = result.data
        assert data["Random Walk"]["p@25"] >= data["Frequency"]["p@25"]
        assert data["Random Walk"]["p@25"] >= data["PageRank"]["p@25"]
        assert data["Random Walk"]["p@25"] > 0.7


class TestTable4:
    def test_paper_ordering(self, small_pipeline):
        result = run_table4(small_pipeline)
        data = result.data
        multitask = data["Semi-Supervised Multi-Task"]["f1"]
        semi = data["Semi-Supervised"]["f1"]
        supervised = data["Supervised"]["f1"]
        assert multitask >= semi >= 0
        assert multitask > supervised
        assert multitask > 0.35
        for label, row in data.items():
            assert 0 <= row["precision"] <= 1
            assert 0 <= row["recall"] <= 1


class TestFigure2:
    def test_dp_leaks_error_mass(self, small_pipeline):
        result = run_figure2(small_pipeline, concept="animal")
        data = result.data
        assert data["intentional_dps"], "no intentional DP found"
        assert data["non_dps"], "no non-DP found"
        series = data["series"]
        assert len(data["axis"]) >= 8
        # AVG distribution concentrates on the concept's frequent instances
        assert sum(series["AVG"].values()) > 0


class TestFigure3:
    def test_feature_separation(self, small_pipeline):
        result = run_figure3(small_pipeline)
        data = result.data
        non_dp = data["Non-DPs"]
        accidental = data["Accidental DPs"]
        # Property 1: non-DPs trigger class-like distributions
        assert non_dp["f1"]["mean"] > accidental["f1"]["mean"]
        # Property 3: accidental DPs rest on weak evidence
        assert non_dp["f3"]["mean"] > accidental["f3"]["mean"]
        # Property 4: their sub-instances score low
        assert non_dp["f4"]["mean"] > accidental["f4"]["mean"]


class TestFigure4:
    def test_three_bands(self, small_pipeline):
        result = run_figure4(small_pipeline)
        bands = result.data["bands"]
        # exclusivity dominates, a handful of highly-similar alias pairs
        assert bands["exclusive"] > bands["irrelevant"] > 0
        assert bands["similar"] >= 4


class TestFigure5:
    def test_5a_growth_and_decay(self, small_pipeline):
        result = run_figure5a(small_pipeline)
        series = result.data["series"]
        assert len(series) >= 6
        first, last = series[0], series[-1]
        assert first["precision"] > 0.9
        assert last["precision"] < first["precision"] - 0.2
        assert last["distinct_pairs"] > 1.5 * first["distinct_pairs"]
        pair_counts = [row["distinct_pairs"] for row in series]
        assert pair_counts == sorted(pair_counts)

    def test_5b_precision_recall_tradeoff(self, small_pipeline):
        result = run_figure5b(small_pipeline, k_values=(0, 2, 4, 6, 8))
        series = result.data["series"]
        assert series[0]["recall"] > series[-1]["recall"]
        assert all(row["precision"] > 0.9 for row in series if row["k"] >= 4)
        assert all(row["precision"] > 0.8 for row in series)

    def test_5c_accuracy_stabilises(self, small_pipeline):
        result = run_figure5c(small_pipeline, iterations=12)
        accuracy = result.data["accuracy"]
        assert len(accuracy) >= 2
        assert accuracy[-1] >= accuracy[0] - 0.02  # rises or stays stable
        assert 0.3 < accuracy[-1] <= 1.0
