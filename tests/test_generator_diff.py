"""Differential tests: block-emitting generators vs the seed per-op references.

The vectorized builders in :mod:`repro.dagdb.fine` and
:mod:`repro.dagdb.coarse` must produce DAGs *identical* to the retained
per-nonzero / per-op implementations in :mod:`oracles.generators`: same
node ids, same role labels, same CSR neighbour orders (which schedulers
tie-break on), same weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dagdb import (
    COARSE_GENERATORS,
    FINE_GENERATORS,
    SparseMatrixPattern,
)

import oracles.generators as ref


def dag_signature(dag):
    return (
        dag.num_nodes,
        dag.num_edges,
        dag.name,
        [dag.successors(v) for v in range(dag.num_nodes)],
        [dag.predecessors(v) for v in range(dag.num_nodes)],
        dag.work_weights.tolist(),
        dag.comm_weights.tolist(),
    )


def assert_identical(new_result, ref_result):
    assert new_result.roles == ref_result.roles
    assert dag_signature(new_result.dag) == dag_signature(ref_result.dag)


def patterns():
    return [
        SparseMatrixPattern.from_coordinates(2, [(0, 0), (1, 0), (1, 1)]),
        SparseMatrixPattern.from_coordinates(3, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
        SparseMatrixPattern.from_coordinates(3, [(0, 0)]),  # vanishing support
        SparseMatrixPattern.from_coordinates(2, [(0, 1)]),  # product dies out
        SparseMatrixPattern.from_coordinates(4, [(1, 0), (2, 1), (3, 2)]),  # chain
        SparseMatrixPattern.random(12, 0.25, seed=3, ensure_diagonal=True),
        SparseMatrixPattern.random(9, 0.15, seed=8),
        SparseMatrixPattern.random(20, 0.4, seed=1, ensure_diagonal=True),
        SparseMatrixPattern.tridiagonal(10),
    ]


class TestFineGeneratorsMatchReference:
    @pytest.mark.parametrize("index", range(len(patterns())))
    @pytest.mark.parametrize("iterations", [1, 2, 4])
    def test_all_families(self, index, iterations):
        pattern = patterns()[index]
        for name, new_gen in FINE_GENERATORS.items():
            ref_gen = ref.FINE_GENERATORS_REFERENCE[name]
            try:
                expected = ref_gen(pattern, iterations)
            except Exception as exc:  # both sides must fail identically
                with pytest.raises(type(exc)):
                    new_gen(pattern, iterations)
                continue
            assert_identical(new_gen(pattern, iterations), expected)

    def test_roles_can_be_skipped(self):
        from repro.dagdb import build_spmv_dag

        pattern = SparseMatrixPattern.random(8, 0.3, seed=2, ensure_diagonal=True)
        tracked = build_spmv_dag(pattern)
        untracked = build_spmv_dag(pattern, track_roles=False)
        assert untracked.roles == {}
        assert dag_signature(untracked.dag) == dag_signature(tracked.dag)


class TestCoarseGeneratorsMatchReference:
    @pytest.mark.parametrize("name", sorted(COARSE_GENERATORS))
    @pytest.mark.parametrize("iterations", [1, 2, 3, 8])
    def test_all_families(self, name, iterations):
        new_dag = COARSE_GENERATORS[name](iterations)
        ref_dag = ref.COARSE_GENERATORS_REFERENCE[name](iterations)
        assert dag_signature(new_dag) == dag_signature(ref_dag)
        # the internal edge buffers are byte-identical too (tiling preserves
        # the reference emission order exactly)
        new_edges = new_dag.edge_arrays()
        ref_edges = ref_dag.edge_arrays()
        assert np.array_equal(new_edges[0], ref_edges[0])
        assert np.array_equal(new_edges[1], ref_edges[1])

    @pytest.mark.parametrize("clusters", [1, 2, 6])
    def test_kmeans_cluster_knob(self, clusters):
        new_dag = COARSE_GENERATORS["kmeans"](3, clusters=clusters)
        ref_dag = ref.COARSE_GENERATORS_REFERENCE["kmeans"](3, clusters=clusters)
        assert dag_signature(new_dag) == dag_signature(ref_dag)
