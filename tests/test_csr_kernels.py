"""Differential tests: CSR kernels vs. the pure-Python reference implementations.

Random DAGs across a density sweep (plus the degenerate shapes: empty,
single node, disconnected components, chains and fan-out/fan-in) are run
through both the vectorized CSR kernels backing :class:`ComputationalDAG`
and the seed list-of-lists implementations in :mod:`oracles.core`;
every derived quantity must agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ComputationalDAG, CycleError
from repro.core.csr import build_csr, gather_rows, topological_levels

from conftest import (
    build_chain_dag,
    build_diamond_dag,
    build_fork_join_dag,
    dag_from_edges,
    random_dag,
)
import oracles.core as ref


def _edge_list(dag: ComputationalDAG) -> list[tuple[int, int]]:
    return [(e.source, e.target) for e in dag.edges()]


def _adjacency(dag: ComputationalDAG):
    return ref.adjacency_from_edges(dag.num_nodes, _edge_list(dag))


def _disconnected_dag() -> ComputationalDAG:
    # nodes 3, 7, 8 isolated
    return dag_from_edges(9, [(0, 1), (1, 2), (4, 5), (4, 6)], name="disconnected")


CASES = [
    lambda: ComputationalDAG(0, name="empty"),
    lambda: ComputationalDAG(1, name="single"),
    _disconnected_dag,
    lambda: build_chain_dag(17),
    build_diamond_dag,
    lambda: build_fork_join_dag(8),
]
DENSITIES = [0.0, 0.03, 0.15, 0.4, 0.9]
SIZES = [2, 7, 23, 60]
for _size in SIZES:
    for _density in DENSITIES:
        CASES.append(
            lambda n=_size, p=_density: random_dag(n, p, seed=int(n * 1000 + p * 100))
        )


@pytest.fixture(params=range(len(CASES)), ids=lambda i: f"case{i}")
def case_dag(request) -> ComputationalDAG:
    return CASES[request.param]()


class TestKernelEquivalence:
    def test_topological_order_matches_reference(self, case_dag):
        succ, pred = _adjacency(case_dag)
        assert case_dag.topological_order() == ref.topological_order_ref(succ, pred)

    def test_levels_match_reference(self, case_dag):
        succ, pred = _adjacency(case_dag)
        assert case_dag.levels().tolist() == ref.levels_ref(succ, pred)

    def test_bottom_levels_match_reference(self, case_dag):
        succ, pred = _adjacency(case_dag)
        expected = ref.bottom_levels_ref(succ, pred, case_dag.work_weights)
        assert case_dag.bottom_levels().tolist() == expected

    def test_reachability_matches_reference(self, case_dag):
        succ, pred = _adjacency(case_dag)
        for v in case_dag.nodes():
            assert case_dag.descendants(v) == ref.descendants_ref(succ, v)
            assert case_dag.ancestors(v) == ref.ancestors_ref(pred, v)

    def test_induced_subgraph_matches_reference(self, case_dag):
        succ, _ = _adjacency(case_dag)
        rng = np.random.default_rng(7)
        n = case_dag.num_nodes
        if n == 0:
            sub = case_dag.induced_subgraph([])
            assert sub.num_nodes == 0 and sub.num_edges == 0
            return
        nodes = [int(v) for v in rng.permutation(n)[: max(1, n // 2)]]
        sub = case_dag.induced_subgraph(nodes)
        assert _edge_list(sub) == ref.induced_edges_ref(succ, nodes)
        assert sub.work_weights.tolist() == [case_dag.work(v) for v in nodes]
        assert sub.comm_weights.tolist() == [case_dag.comm(v) for v in nodes]

    def test_neighbourhoods_match_reference(self, case_dag):
        succ, pred = _adjacency(case_dag)
        for v in case_dag.nodes():
            assert case_dag.successors(v) == succ[v]
            assert case_dag.predecessors(v) == pred[v]
            assert case_dag.succ(v).tolist() == succ[v]
            assert case_dag.pred(v).tolist() == pred[v]
            assert case_dag.out_degree(v) == len(succ[v])
            assert case_dag.in_degree(v) == len(pred[v])


class TestCsrPrimitives:
    def test_build_csr_preserves_insertion_order(self):
        sources = np.array([2, 0, 2, 1, 2], dtype=np.int64)
        targets = np.array([3, 1, 0, 3, 4], dtype=np.int64)
        indptr, indices = build_csr(5, sources, targets)
        assert indptr.tolist() == [0, 1, 2, 5, 5, 5]
        assert indices.tolist() == [1, 3, 3, 0, 4]  # row 2 keeps 3, 0, 4 order

    def test_gather_rows_ragged(self):
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)
        indices = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        values, offsets = gather_rows(indptr, indices, np.array([2, 0, 1]))
        assert values.tolist() == [12, 13, 14, 10, 11]
        assert offsets.tolist() == [0, 3, 5, 5]

    def test_gather_rows_empty_frontier(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        values, offsets = gather_rows(indptr, indices, np.empty(0, dtype=np.int64))
        assert values.size == 0
        assert offsets.tolist() == [0]

    def test_topological_levels_detects_cycles(self):
        dag = dag_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CycleError):
            topological_levels(3, dag.succ_indptr, dag.succ_indices, dag.pred_indptr)

    def test_csr_views_are_read_only(self):
        dag = build_diamond_dag()
        with pytest.raises(ValueError):
            dag.succ_indices[0] = 99
        with pytest.raises(ValueError):
            dag.succ(0)[0] = 99

    def test_csr_is_built_once_on_first_query(self):
        dag = dag_from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        indptr = dag.succ_indptr
        assert dag.succ(0).tolist() == [1, 2]
        assert dag.succ(3).tolist() == [4]
        assert dag.levels().tolist() == [0, 1, 1, 2, 3]
        assert dag.depth() == 4
        assert dag.succ_indptr is indptr  # kept for the DAG's lifetime

