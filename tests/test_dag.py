"""Unit tests for the ComputationalDAG container."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import ComputationalDAG, CycleError, DagBuilder, DagError

from conftest import build_chain_dag, build_diamond_dag, build_fork_join_dag


class TestConstruction:
    def test_empty_dag(self):
        dag = ComputationalDAG(0)
        assert dag.num_nodes == 0
        assert dag.num_edges == 0
        assert dag.total_work == 0.0
        assert dag.topological_order() == []
        assert dag.depth() == 0
        assert dag.critical_path_length() == 0.0

    def test_default_weights_are_one(self):
        dag = ComputationalDAG(3)
        assert dag.work(0) == 1.0
        assert dag.comm(2) == 1.0
        assert dag.total_work == 3.0
        assert dag.total_comm == 3.0

    def test_explicit_weights(self):
        dag = ComputationalDAG(3, [1, 2, 3], [4, 5, 6])
        assert dag.work(1) == 2.0
        assert dag.comm(2) == 6.0
        assert dag.total_work == 6.0
        assert dag.total_comm == 15.0

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(DagError):
            ComputationalDAG(3, work_weights=[1, 2])

    def test_negative_weights_rejected(self):
        with pytest.raises(DagError):
            ComputationalDAG(2, work_weights=[1, -1])
        dag = ComputationalDAG(2)
        with pytest.raises(DagError):
            dag.set_work(0, -3)
        with pytest.raises(DagError):
            dag.set_comm(1, -1)

    def test_negative_node_count_rejected(self):
        with pytest.raises(DagError):
            ComputationalDAG(-1)

    def test_add_node_returns_index(self):
        dag = ComputationalDAG(2)
        new = dag.add_node(work=7, comm=3)
        assert new == 2
        assert dag.num_nodes == 3
        assert dag.work(2) == 7.0
        assert dag.comm(2) == 3.0

    def test_add_nodes_bulk(self):
        dag = ComputationalDAG(0)
        indices = dag.add_nodes(5, work=2)
        assert indices == [0, 1, 2, 3, 4]
        assert dag.total_work == 10.0

    def test_set_weights(self):
        dag = ComputationalDAG(2)
        dag.set_work(0, 9)
        dag.set_comm(1, 4)
        assert dag.work(0) == 9.0
        assert dag.comm(1) == 4.0

    def test_weight_views_are_read_only(self):
        dag = ComputationalDAG(2)
        with pytest.raises(ValueError):
            dag.work_weights[0] = 5


class TestEdges:
    def test_add_edge_and_neighbourhoods(self):
        dag = build_diamond_dag()
        assert dag.num_edges == 4
        assert sorted(dag.successors(0)) == [1, 2]
        assert dag.predecessors(3) == [1, 2]
        assert dag.out_degree(0) == 2
        assert dag.in_degree(3) == 2
        assert dag.has_edge(0, 1)
        assert not dag.has_edge(1, 0)

    def test_duplicate_edge_rejected(self):
        dag = ComputationalDAG(2)
        dag.add_edge(0, 1)
        with pytest.raises(DagError):
            dag.add_edge(0, 1)

    def test_self_loop_rejected(self):
        dag = ComputationalDAG(1)
        with pytest.raises(CycleError):
            dag.add_edge(0, 0)

    def test_unknown_node_rejected(self):
        dag = ComputationalDAG(2)
        with pytest.raises(DagError):
            dag.add_edge(0, 5)

    def test_cycle_detected_lazily(self):
        dag = ComputationalDAG(2)
        dag.add_edge(0, 1)
        dag.add_edge(1, 0)  # no eager check
        assert not dag.is_acyclic()
        with pytest.raises(CycleError):
            dag.topological_order()

    def test_edges_iteration(self):
        dag = build_diamond_dag()
        edges = {(e.source, e.target) for e in dag.edges()}
        assert edges == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_sources_and_sinks(self):
        dag = build_fork_join_dag(3)
        assert dag.sources() == [0]
        assert dag.sinks() == [4]

    def test_edge_sources_are_cached_until_an_edge_is_added(self):
        dag = build_diamond_dag()
        sources, targets = dag.edge_arrays()
        again, _ = dag.edge_arrays()
        assert again is sources
        assert not sources.flags.writeable
        assert sources.tolist() == [0, 0, 1, 2]
        assert targets.tolist() == [1, 2, 3, 3]
        dag.add_edge(0, 3)
        rebuilt, targets = dag.edge_arrays()
        assert rebuilt is not sources
        assert rebuilt.tolist() == [0, 0, 0, 1, 2]
        assert targets.tolist() == [1, 2, 3, 3, 3]


#: the queries that need a topological order, and so are where a cycle surfaces
TOPOLOGICAL_QUERIES = {
    "topological_order": ComputationalDAG.topological_order,
    "levels": ComputationalDAG.levels,
    "bottom_levels": ComputationalDAG.bottom_levels,
    "critical_path_length": ComputationalDAG.critical_path_length,
    "depth": ComputationalDAG.depth,
}


def _cycle_by_add_edge():
    dag = ComputationalDAG(3)
    dag.add_edges([(0, 1), (1, 2), (2, 0)])
    return dag


def _cycle_by_edge_arrays():
    return ComputationalDAG.from_edge_arrays(3, [0, 1, 2], [1, 2, 0])


def _cycle_by_builder():
    builder = DagBuilder(3)
    builder.add_edges_array([0, 1, 2], [1, 2, 0])
    return builder.freeze()


class TestLazyCycleDetection:
    """No insertion checks for cycles; the first query that needs a
    topological order refuses a cyclic graph with ``CycleError``."""

    @pytest.mark.parametrize("query", TOPOLOGICAL_QUERIES)
    def test_query_on_cyclic_graph_raises(self, query):
        dag = build_chain_dag(4)
        dag.add_edge(3, 1)
        with pytest.raises(CycleError):
            TOPOLOGICAL_QUERIES[query](dag)

    @pytest.mark.parametrize("query", TOPOLOGICAL_QUERIES)
    def test_cached_answer_dropped_when_an_edge_closes_a_cycle(self, query):
        dag = build_chain_dag(4)
        TOPOLOGICAL_QUERIES[query](dag)  # fills the query's cache
        dag.add_edge(3, 0)
        with pytest.raises(CycleError):
            TOPOLOGICAL_QUERIES[query](dag)

    @pytest.mark.parametrize(
        "build",
        [_cycle_by_add_edge, _cycle_by_edge_arrays, _cycle_by_builder],
        ids=["add_edge", "from_edge_arrays", "DagBuilder.freeze"],
    )
    def test_every_construction_path_defers_the_check(self, build):
        dag = build()  # accepted: no construction path looks for cycles
        assert dag.num_edges == 3
        assert not dag.is_acyclic()
        with pytest.raises(CycleError):
            dag.topological_order()

    def test_random_insertions_match_networkx(self):
        """Mostly forward edges with an occasional backward one: the graph
        reads as cyclic from exactly the insertion networkx calls cyclic."""
        for trial in range(10):
            rng = np.random.default_rng(trial)
            n = 12
            dag = ComputationalDAG(n)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            for draw in range(40):
                u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
                if draw % 8 == 7:
                    u, v = v, u
                if graph.has_edge(u, v):
                    continue
                dag.add_edge(u, v)
                graph.add_edge(u, v)
                acyclic = nx.is_directed_acyclic_graph(graph)
                assert dag.is_acyclic() == acyclic
                if acyclic:
                    position = {node: i for i, node in enumerate(dag.topological_order())}
                    assert all(position[a] < position[b] for a, b in graph.edges)
                else:
                    with pytest.raises(CycleError):
                        dag.topological_order()
            assert {(e.source, e.target) for e in dag.edges()} == set(graph.edges)

    def test_node_growth_between_queries_keeps_the_fifo_order(self):
        dag = ComputationalDAG(3)
        dag.add_edges([(0, 1), (1, 2)])
        assert dag.topological_order() == [0, 1, 2]
        assert dag.add_nodes(2) == [3, 4]
        assert dag.topological_order() == [0, 3, 4, 1, 2]
        dag.add_edges([(2, 3), (3, 4)])
        assert dag.topological_order() == [0, 1, 2, 3, 4]
        assert dag.add_node() == 5
        dag.add_edge(4, 0)  # closes 0 -> 1 -> 2 -> 3 -> 4 -> 0
        with pytest.raises(CycleError):
            dag.topological_order()

    def test_reachability_still_answers_on_a_cyclic_graph(self):
        dag = ComputationalDAG(4)
        dag.add_edges([(0, 1), (1, 2), (2, 3), (3, 1)])
        assert dag.has_path(3, 2)  # through the cycle
        assert dag.has_path(0, 3)
        assert not dag.has_path(1, 0)
        assert dag.descendants(0) == {1, 2, 3}


class TestStructuralAlgorithms:
    def test_topological_order_respects_edges(self):
        dag = build_diamond_dag()
        order = dag.topological_order()
        position = {v: i for i, v in enumerate(order)}
        for edge in dag.edges():
            assert position[edge.source] < position[edge.target]

    def test_levels(self):
        dag = build_diamond_dag()
        levels = dag.levels()
        assert list(levels) == [0, 1, 1, 2]
        assert dag.depth() == 3

    def test_bottom_levels_unit_weights(self):
        dag = build_chain_dag(4)
        assert list(dag.bottom_levels()) == [4, 3, 2, 1]
        assert dag.critical_path_length() == 4.0

    def test_bottom_levels_weighted(self):
        dag = ComputationalDAG(3, [1, 10, 2])
        dag.add_edges([(0, 1), (0, 2)])
        assert list(dag.bottom_levels()) == [11, 10, 2]

    def test_has_path(self):
        dag = build_diamond_dag()
        assert dag.has_path(0, 3)
        assert dag.has_path(1, 3)
        assert not dag.has_path(1, 2)
        assert dag.has_path(2, 2)

    def test_descendants_and_ancestors(self):
        dag = build_diamond_dag()
        assert dag.descendants(0) == {1, 2, 3}
        assert dag.ancestors(3) == {0, 1, 2}
        assert dag.descendants(3) == set()
        assert dag.ancestors(0) == set()

    def test_weakly_connected_components(self):
        dag = ComputationalDAG(5)
        dag.add_edge(0, 1)
        dag.add_edge(2, 3)
        components = dag.weakly_connected_components()
        assert sorted(map(tuple, components)) == [(0, 1), (2, 3), (4,)]

    def test_largest_connected_component(self):
        dag = ComputationalDAG(6, [1, 2, 3, 4, 5, 6])
        dag.add_edges([(0, 1), (1, 2), (3, 4)])
        sub = dag.largest_connected_component()
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        # weights carried over
        assert sub.total_work == 1 + 2 + 3

    def test_induced_subgraph_relabels(self):
        dag = build_diamond_dag()
        sub = dag.induced_subgraph([0, 1, 3])
        assert sub.num_nodes == 3
        assert {(e.source, e.target) for e in sub.edges()} == {(0, 1), (1, 2)}

    def test_cache_invalidation_after_mutation(self):
        dag = build_chain_dag(3)
        assert dag.depth() == 3
        v = dag.add_node()
        dag.add_edge(2, v)
        assert dag.depth() == 4


class TestConversions:
    def test_networkx_roundtrip(self):
        dag = build_diamond_dag()
        dag.set_work(1, 7)
        graph = dag.to_networkx()
        back = ComputationalDAG.from_networkx(graph)
        assert back.num_nodes == dag.num_nodes
        assert back.num_edges == dag.num_edges
        assert back.work(1) == 7.0
        assert {(e.source, e.target) for e in back.edges()} == {
            (e.source, e.target) for e in dag.edges()
        }

    def test_from_networkx_rejects_cycles(self):
        graph = nx.DiGraph([(0, 1), (1, 0)])
        with pytest.raises(CycleError):
            ComputationalDAG.from_networkx(graph)

    def test_copy_is_independent(self):
        dag = build_diamond_dag()
        clone = dag.copy()
        clone.add_edge(1, 2)
        assert dag.num_edges == 4
        assert clone.num_edges == 5
        assert np.array_equal(dag.work_weights, clone.work_weights)
