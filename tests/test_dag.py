"""Unit tests for the ComputationalDAG container."""

from __future__ import annotations

import pickle

import networkx as nx
import numpy as np
import pytest

from repro.api.request import dag_fingerprint
from repro.core import ComputationalDAG, CycleError, DagBuilder, DagError, dag_from_dict
from repro.io import loads_hyperdag

from conftest import build_chain_dag, build_diamond_dag, build_fork_join_dag, dag_from_edges


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
            dag.with_weights([-3, 1], [1, 1])
        with pytest.raises(DagError):
            dag.with_weights([1, 1], [1, -1])

    def test_negative_node_count_rejected(self):
        with pytest.raises(DagError):
            ComputationalDAG(-1)

    def test_add_node_returns_index(self):
        builder = DagBuilder(2)
        new = builder.add_node(work=7, comm=3)
        assert new == 2
        dag = builder.freeze()
        assert dag.num_nodes == 3
        assert dag.work(2) == 7.0
        assert dag.comm(2) == 3.0

    def test_add_nodes_bulk(self):
        builder = DagBuilder(0)
        indices = builder.add_nodes(5, work=2)
        assert indices == [0, 1, 2, 3, 4]
        assert builder.freeze().total_work == 10.0

    def test_set_weights(self):
        """``with_weights`` gives a new DAG and leaves the original as it was."""
        dag = ComputationalDAG(2)
        reweighted = dag.with_weights([9, 1], [1, 4])
        assert reweighted.work(0) == 9.0
        assert reweighted.comm(1) == 4.0
        assert dag.work(0) == 1.0
        assert dag.comm(1) == 1.0

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
        with pytest.raises(DagError):
            dag_from_edges(2, [(0, 1), (0, 1)])
        with pytest.raises(DagError):
            ComputationalDAG.from_edge_arrays(2, [0, 0], [1, 1])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            DagBuilder(1).add_edge(0, 0)
        with pytest.raises(CycleError):
            ComputationalDAG.from_edge_arrays(1, [0], [0])

    def test_unknown_node_rejected(self):
        with pytest.raises(DagError):
            DagBuilder(2).add_edge(0, 5)
        with pytest.raises(DagError):
            ComputationalDAG.from_edge_arrays(2, [0], [5])

    def test_cycle_detected_lazily(self):
        dag = dag_from_edges(2, [(0, 1), (1, 0)])  # no eager check
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

    def test_edge_sources_are_cached(self):
        dag = build_diamond_dag()
        sources, targets = dag.edge_arrays()
        again, _ = dag.edge_arrays()
        assert again is sources
        assert not sources.flags.writeable
        assert sources.tolist() == [0, 0, 1, 2]
        assert targets.tolist() == [1, 2, 3, 3]
        # edges come out source-major, in insertion order within a source
        wider = dag_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        sources, targets = wider.edge_arrays()
        assert sources.tolist() == [0, 0, 0, 1, 2]
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
    return dag_from_edges(3, [(0, 1), (1, 2), (2, 0)])


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
        dag = dag_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
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

    def test_random_edge_sets_match_networkx(self):
        """Mostly forward edges with an occasional backward one: each prefix
        of the draw reads as cyclic exactly when networkx calls it cyclic."""
        for trial in range(10):
            rng = np.random.default_rng(trial)
            n = 12
            edges: list[tuple[int, int]] = []
            for draw in range(40):
                u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
                if draw % 8 == 7:
                    u, v = v, u
                if (u, v) not in edges:
                    edges.append((u, v))
            for k in range(1, len(edges) + 1):
                sources, targets = zip(*edges[:k])
                dag = ComputationalDAG.from_edge_arrays(n, sources, targets)
                graph = nx.DiGraph(edges[:k])
                graph.add_nodes_from(range(n))
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
        """Each freeze of a growing builder orders its nodes FIFO (Kahn)."""
        builder = DagBuilder(3)
        builder.add_edges([(0, 1), (1, 2)])
        assert builder.freeze().topological_order() == [0, 1, 2]
        assert builder.add_nodes(2) == [3, 4]
        assert builder.freeze().topological_order() == [0, 3, 4, 1, 2]
        builder.add_edges([(2, 3), (3, 4)])
        assert builder.freeze().topological_order() == [0, 1, 2, 3, 4]
        assert builder.add_node() == 5
        builder.add_edge(4, 0)  # closes 0 -> 1 -> 2 -> 3 -> 4 -> 0
        with pytest.raises(CycleError):
            builder.freeze().topological_order()

    def test_reachability_still_answers_on_a_cyclic_graph(self):
        dag = dag_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
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
        dag = dag_from_edges(3, [(0, 1), (0, 2)], work=[1, 10, 2])
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
        dag = dag_from_edges(5, [(0, 1), (2, 3)])
        components = dag.weakly_connected_components()
        assert sorted(map(tuple, components)) == [(0, 1), (2, 3), (4,)]

    def test_largest_connected_component(self):
        dag = dag_from_edges(6, [(0, 1), (1, 2), (3, 4)], work=[1, 2, 3, 4, 5, 6])
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


class TestConversions:
    def test_networkx_roundtrip(self):
        dag = dag_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)], work=[1, 7, 1, 1])
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


#: every public way to build a DAG, each handed one weight ``bad``
WEIGHTED_CONSTRUCTORS = {
    "ComputationalDAG": lambda bad: ComputationalDAG(2, work_weights=[1, bad]),
    "ComputationalDAG.comm": lambda bad: ComputationalDAG(2, comm_weights=[bad, 1]),
    "from_edge_arrays": lambda bad: ComputationalDAG.from_edge_arrays(
        2, [0], [1], work_weights=[1, bad]
    ),
    "with_weights": lambda bad: ComputationalDAG(2).with_weights([1, 1], [1, bad]),
    "DagBuilder": lambda bad: DagBuilder(2, [1, bad]),
    "DagBuilder.add_node": lambda bad: DagBuilder().add_node(work=bad),
    "DagBuilder.add_nodes": lambda bad: DagBuilder().add_nodes(2, comm=bad),
    "DagBuilder.add_node_block": lambda bad: DagBuilder().add_node_block(3, work=bad),
    "DagBuilder.add_nodes_array": lambda bad: DagBuilder().add_nodes_array([1.0, bad]),
    "from_networkx": lambda bad: ComputationalDAG.from_networkx(
        _graph_with_work([1.0, bad])
    ),
    "dag_from_dict": lambda bad: dag_from_dict(
        {"num_nodes": 2, "work": [1.0, bad], "comm": [1.0, 1.0], "edges": [[0, 1]]}
    ),
    "loads_hyperdag": lambda bad: loads_hyperdag(
        f"nodes 2\n1 1\n{bad} 1\nhyperedges 1\n0 1\n"
    ),
}


def _graph_with_work(works):
    graph = nx.DiGraph([(0, 1)])
    for v, work in enumerate(works):
        graph.nodes[v]["work"] = work
    return graph


class TestWeightChecks:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
    @pytest.mark.parametrize("build", WEIGHTED_CONSTRUCTORS)
    def test_every_constructor_refuses_a_non_finite_or_negative_weight(self, build, bad):
        with pytest.raises(DagError, match="finite"):
            WEIGHTED_CONSTRUCTORS[build](bad)


#: the mutation API a DAG no longer has: DagBuilder is the incremental builder
REMOVED_METHODS = (
    "add_node",
    "add_nodes",
    "add_edge",
    "add_edges",
    "set_work",
    "set_comm",
    "set_work_weights",
    "set_comm_weights",
    "copy",
    "_ensure_writable_weights",
    "_ensure_edge_set",
    "_invalidate",
)


class TestImmutability:
    def test_no_mutation_api_and_read_only_arrays(self):
        dag = build_diamond_dag()
        for method in REMOVED_METHODS:
            assert not hasattr(dag, method), method
        sources, targets = dag.edge_arrays()
        arrays = {
            "work_weights": dag.work_weights,
            "comm_weights": dag.comm_weights,
            "succ_indptr": dag.succ_indptr,
            "succ_indices": dag.succ_indices,
            "pred_indptr": dag.pred_indptr,
            "pred_indices": dag.pred_indices,
            "edge sources": sources,
            "edge targets": targets,
        }
        for what, array in arrays.items():
            assert not array.flags.writeable, what
            with pytest.raises(ValueError):
                array[0] = 5
        clone = pickle.loads(pickle.dumps(dag))  # what a process pool receives
        assert not clone.work_weights.flags.writeable
        assert not clone.succ_indices.flags.writeable
        # a caller's array is copied in, so writing to it later changes nothing
        work = np.array([1.0, 2.0, 3.0])
        dag = ComputationalDAG.from_edge_arrays(3, [0], [1], work_weights=work)
        work[0] = 9.0
        assert dag.work(0) == 1.0

    def test_with_weights_shares_the_structure_caches(self):
        dag = build_diamond_dag()
        order = dag.topological_order()
        levels = dag.levels()
        fingerprint = dag_fingerprint(dag)
        bottom = dag.bottom_levels()
        heavy = dag.with_weights([1, 5, 1, 1], [2, 2, 2, 2])
        for cache in ("succ_indptr", "succ_indices", "pred_indptr", "pred_indices"):
            assert getattr(heavy, cache) is getattr(dag, cache), cache
        assert heavy.edge_arrays()[0] is dag.edge_arrays()[0]
        assert heavy.topological_order() == order
        assert heavy.levels().tolist() == levels.tolist()
        # weight-dependent answers are the new DAG's own
        assert heavy.bottom_levels().tolist() == [7, 6, 2, 1]
        assert dag.bottom_levels().tolist() == bottom.tolist() == [3, 2, 2, 1]
        assert dag_fingerprint(heavy) != fingerprint
        assert dag_fingerprint(dag) == fingerprint
        assert heavy.name == dag.name
        assert heavy.total_comm == 8.0 and dag.total_comm == 4.0
