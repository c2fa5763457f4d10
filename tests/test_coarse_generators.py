"""Unit tests for the coarse-grained DAG generators."""

from __future__ import annotations

import pytest

from repro.core import DagError
from repro.dagdb import (
    COARSE_GENERATORS,
    apply_paper_weight_rule,
    build_bicgstab_coarse,
    build_cg_coarse,
    build_kmeans_coarse,
    build_knn_coarse,
    build_label_propagation_coarse,
    build_pagerank_coarse,
    build_sparse_nn_inference_coarse,
)
from repro.core import ComputationalDAG


class TestAllGenerators:
    @pytest.mark.parametrize("name", sorted(COARSE_GENERATORS))
    def test_acyclic_and_connected(self, name):
        dag = COARSE_GENERATORS[name](4)
        assert dag.is_acyclic()
        assert dag.num_nodes > 4
        assert len(dag.weakly_connected_components()) == 1

    @pytest.mark.parametrize("name", sorted(COARSE_GENERATORS))
    def test_node_count_grows_linearly_with_iterations(self, name):
        builder = COARSE_GENERATORS[name]
        n2, n4, n6 = (builder(k).num_nodes for k in (2, 4, 6))
        assert n4 - n2 == n6 - n4 > 0

    @pytest.mark.parametrize("name", sorted(COARSE_GENERATORS))
    def test_paper_weight_rule(self, name):
        dag = COARSE_GENERATORS[name](3)
        for v in dag.nodes():
            expected = 1.0 if dag.in_degree(v) == 0 else max(dag.in_degree(v) - 1, 1)
            assert dag.work(v) == expected
            assert dag.comm(v) == 1.0

    @pytest.mark.parametrize("name", sorted(COARSE_GENERATORS))
    def test_invalid_iterations_rejected(self, name):
        with pytest.raises(DagError):
            COARSE_GENERATORS[name](0)


class TestSpecificStructures:
    def test_cg_coarse_iteration_size(self):
        """One CG iteration adds 8 container operations."""
        assert build_cg_coarse(2).num_nodes - build_cg_coarse(1).num_nodes == 8

    def test_bicgstab_larger_than_cg(self):
        assert build_bicgstab_coarse(5).num_nodes > build_cg_coarse(5).num_nodes

    def test_pagerank_has_five_ops_per_iteration(self):
        assert build_pagerank_coarse(3).num_nodes - build_pagerank_coarse(2).num_nodes == 5

    def test_kmeans_scales_with_clusters(self):
        small = build_kmeans_coarse(3, clusters=2)
        large = build_kmeans_coarse(3, clusters=6)
        assert large.num_nodes > small.num_nodes
        with pytest.raises(DagError):
            build_kmeans_coarse(2, clusters=0)

    def test_knn_coarse_depth_grows(self):
        assert build_knn_coarse(6).depth() > build_knn_coarse(2).depth()

    def test_label_propagation_names(self):
        dag = build_label_propagation_coarse(2, name="custom")
        assert dag.name == "custom"

    def test_sparse_nn_layers(self):
        dag = build_sparse_nn_inference_coarse(4)
        # per layer: 2 sources + 3 ops, plus the initial activation source
        assert dag.num_nodes == 1 + 4 * 5
        assert dag.depth() == 1 + 3 * 4


class TestWeightRuleHelper:
    def test_apply_paper_weight_rule(self):
        dag = ComputationalDAG.from_edge_arrays(3, [0, 1], [2, 2], [9, 9, 9], [9, 9, 9])
        weighted = apply_paper_weight_rule(dag)
        assert weighted.work(0) == 1.0
        assert weighted.work(2) == 1.0  # indeg 2 -> 1
        assert weighted.comm(1) == 1.0
        assert dag.work(0) == 9.0  # the input is left as it was

    def test_pass_through_node_gets_unit_work(self):
        dag = ComputationalDAG.from_edge_arrays(2, [0], [1])
        assert apply_paper_weight_rule(dag).work(1) == 1.0  # floor of indeg-1 at 1
