"""Tests for per-concept trigger graphs."""

from __future__ import annotations

from repro.kb import IsAPair, KnowledgeBase
from repro.ranking import build_concept_graphs

from .dense import adjacency


def _kb():
    kb = KnowledgeBase()
    kb.add_extraction(0, "animal", ("dog", "chicken"), iteration=1)
    kb.add_extraction(1, "animal", ("dog",), iteration=1)
    chicken = IsAPair("animal", "chicken")
    kb.add_extraction(
        2, "animal", ("pork", "beef", "chicken"), triggers=(chicken,),
        iteration=2,
    )
    return kb


def build_concept_graph(kb, concept):
    return build_concept_graphs(kb, [concept])[concept]


class TestBuildConceptGraph:
    def test_nodes_are_sorted_instances(self):
        graph = build_concept_graph(_kb(), "animal")
        assert graph.nodes == ("beef", "chicken", "dog", "pork")

    def test_edges_from_trigger_to_co_instances(self):
        graph = build_concept_graph(_kb(), "animal")
        chicken = graph.nodes.index("chicken")
        targets = {
            graph.nodes[t]: w for t, w in adjacency(graph)[chicken].items()
        }
        assert targets == {"pork": 1.0, "beef": 1.0}

    def test_no_self_edges(self):
        graph = build_concept_graph(_kb(), "animal")
        for source, row in adjacency(graph).items():
            assert source not in row

    def test_restart_mass_on_core_only(self):
        graph = build_concept_graph(_kb(), "animal")
        restart = dict(zip(graph.nodes, graph.restart))
        assert restart["dog"] == 2.0
        assert restart["chicken"] == 1.0
        assert restart["pork"] == 0.0

    def test_inactive_records_excluded(self):
        kb = _kb()
        record = next(r for r in kb.records() if r.iteration == 2)
        kb.deactivate_record(record.rid)
        graph = build_concept_graph(kb, "animal")
        assert graph.weights.sum() == 0.0

    def test_empty_concept(self):
        graph = build_concept_graph(KnowledgeBase(), "animal")
        assert graph.size == 0
