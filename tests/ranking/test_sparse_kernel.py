"""Equivalence tests for the sparse walk kernel (dense and CSR oracles)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb import IsAPair, KnowledgeBase
from repro.ranking import PageRankRanker, RandomWalkRanker
from repro.ranking.graph import build_concept_graphs
from repro.ranking.random_walk import _random_walk_scores_union

from ..cleaning.uncached import UncachedRanker
from .dense import (
    graph_from_edge_dict,
    pagerank_scores_dense,
    random_walk_scores_csr,
    random_walk_scores_dense,
)


@st.composite
def trigger_graphs(draw):
    """Random trigger graphs: arbitrary edges, core mass on a node subset."""
    n = draw(st.integers(min_value=1, max_value=10))
    nodes = tuple(f"i{k}" for k in range(n))
    edges: dict[int, dict[int, float]] = {}
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        source = draw(st.integers(min_value=0, max_value=n - 1))
        target = draw(st.integers(min_value=0, max_value=n - 1))
        weight = draw(
            st.floats(min_value=0.25, max_value=8.0, allow_nan=False)
        )
        edges.setdefault(source, {})[target] = weight
    restart = [
        float(draw(st.integers(min_value=0, max_value=3))) for _ in range(n)
    ]
    return graph_from_edge_dict("concept", nodes, edges, restart)


class TestSparseMatchesDense:
    @given(trigger_graphs())
    @settings(max_examples=60, deadline=None)
    def test_sparse_within_1e9_of_dense_oracle(self, graph):
        (sparse_scores,) = _random_walk_scores_union(
            [graph], restart_probability=0.15
        )
        dense_scores = random_walk_scores_dense(graph)
        assert set(sparse_scores) == set(dense_scores)
        for name, value in sparse_scores.items():
            assert abs(value - dense_scores[name]) <= 1e-9

    @given(st.lists(trigger_graphs(), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_batch_solve_is_blockwise_exact(self, graphs):
        # A graph solved inside any batch must be *bit-identical* to the
        # same graph solved alone — the score cache depends on it.
        batch = _random_walk_scores_union(graphs, restart_probability=0.15)
        for graph, scores in zip(graphs, batch):
            (solo,) = _random_walk_scores_union(
                [graph], restart_probability=0.15
            )
            assert scores == solo


def _pagerank_union(graphs):
    """PageRank through the kernel: the symmetrised, uniform-restart walk."""
    undirected = PageRankRanker()._walk_graph
    return _random_walk_scores_union(
        [undirected(graph) for graph in graphs], restart_probability=0.15
    )


class TestPageRankMatchesDense:
    @given(trigger_graphs())
    @settings(max_examples=60, deadline=None)
    def test_pagerank_within_1e9_of_dense_oracle(self, graph):
        (sparse_scores,) = _pagerank_union([graph])
        dense_scores = pagerank_scores_dense(graph)
        assert set(sparse_scores) == set(dense_scores)
        for name, value in sparse_scores.items():
            assert abs(value - dense_scores[name]) <= 1e-9

    @given(st.lists(trigger_graphs(), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_batch_solve_is_blockwise_exact(self, graphs):
        for graph, scores in zip(graphs, _pagerank_union(graphs)):
            (solo,) = _pagerank_union([graph])
            assert scores == solo


class TestBincountStepMatchesCsr:
    """On graphs with one edge per (source, target), as trigger graphs
    are, each step's ordered bincount is bit for bit a CSR mat-vec."""

    @given(st.lists(trigger_graphs(), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_unions(self, graphs):
        expected = random_walk_scores_csr(graphs)
        assert _random_walk_scores_union(graphs, 0.15) == expected

    @given(st.lists(trigger_graphs(), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_pagerank_unions_agree_to_the_last_bits(self, graphs):
        # The symmetrised graph repeats every edge given both ways (and
        # every self-loop): CSR sums a repeated transition before the
        # product, the bincount step after it.
        undirected = [PageRankRanker()._walk_graph(g) for g in graphs]
        expected = random_walk_scores_csr(undirected)
        for scores, oracle in zip(_pagerank_union(graphs), expected):
            assert scores.keys() == oracle.keys()
            for name, value in scores.items():
                assert abs(value - oracle[name]) <= 1e-14

    def test_every_concept_of_an_extraction(self, small_pipeline):
        kb = small_pipeline.extract().kb
        graphs = list(build_concept_graphs(kb, sorted(kb.concepts())).values())
        assert sum(len(graph.sources) for graph in graphs) > 0
        assert _random_walk_scores_union(
            graphs, 0.15
        ) == random_walk_scores_csr(graphs)


def _many_concept_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    for c in range(6):
        concept = f"concept{c}"
        core = tuple(f"c{c}_core{i}" for i in range(3))
        kb.add_extraction(c * 10, concept, core, iteration=1)
        trigger = IsAPair(concept, core[0])
        kb.add_extraction(
            c * 10 + 1, concept, (f"c{c}_drift", core[0]),
            triggers=(trigger,), iteration=2,
        )
    return kb


class TestScoreCache:
    def test_untouched_concepts_reuse_cached_scores(self):
        kb = _many_concept_kb()
        ranker = RandomWalkRanker()
        first = ranker.score_all(kb)
        kb.remove_pair(IsAPair("concept0", "c0_drift"))
        second = ranker.score_all(kb)
        # concept0 was touched: recomputed (and the drift node is gone).
        assert "c0_drift" not in second["concept0"]
        # every other concept's table is the cached object itself
        for c in range(1, 6):
            assert second[f"concept{c}"] is first[f"concept{c}"]

    def test_cache_disabled_recomputes_identically(self):
        kb = _many_concept_kb()
        cached = RandomWalkRanker()
        uncached = UncachedRanker()
        assert cached.score_all(kb) == uncached.score_all(kb)
        kb.remove_pair(IsAPair("concept3", "c3_drift"))
        assert cached.score_all(kb) == uncached.score_all(kb)
