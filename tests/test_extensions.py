"""Unit tests for the framework extensions: serialization, MatrixMarket loading
and the ablation helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    BspMachine,
    ComputationalDAG,
    ReproError,
    dag_from_dict,
    dag_to_dict,
    load_schedule,
    machine_from_dict,
    machine_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core import DagError
from repro.io import loads_matrix_market_pattern, read_matrix_market_pattern
from repro.schedulers import BspGreedyScheduler, CilkScheduler

from conftest import random_dag
from repro.dagdb import build_spmv_dag


class TestSerialization:
    def test_dag_roundtrip(self):
        dag = random_dag(15, 0.2, seed=2)
        back = dag_from_dict(dag_to_dict(dag))
        assert back.num_nodes == dag.num_nodes
        assert back.num_edges == dag.num_edges
        assert np.allclose(back.work_weights, dag.work_weights)

    def test_machine_roundtrip(self):
        machine = BspMachine.numa_hierarchy(8, delta=3, g=2, latency=7)
        back = machine_from_dict(machine_to_dict(machine))
        assert back.num_procs == 8
        assert back.g == 2 and back.latency == 7
        assert np.array_equal(back.numa, machine.numa)

    def test_schedule_roundtrip_lazy_and_explicit(self, machine4):
        dag = random_dag(12, 0.25, seed=4)
        schedule = BspGreedyScheduler().schedule(dag, machine4)
        back = schedule_from_dict(schedule_to_dict(schedule))
        assert back.cost() == pytest.approx(schedule.cost())
        explicit = schedule.with_comm_schedule(schedule.comm_schedule)
        back_explicit = schedule_from_dict(schedule_to_dict(explicit))
        assert back_explicit.cost() == pytest.approx(explicit.cost())
        assert not back_explicit.uses_lazy_comm

    def test_file_roundtrip(self, tmp_path, machine4):
        dag = random_dag(10, 0.3, seed=5)
        schedule = CilkScheduler(seed=0).schedule(dag, machine4)
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule_to_dict(schedule)))
        loaded = load_schedule(path)
        assert loaded.cost() == pytest.approx(schedule.cost())
        assert loaded.is_valid()

    def test_malformed_data_rejected(self):
        with pytest.raises(ReproError):
            dag_from_dict({"num_nodes": 2, "work": [1], "comm": [1, 1], "edges": []})
        with pytest.raises(ReproError):
            dag_from_dict(
                {"num_nodes": 2, "work": [1, 1], "comm": [1, 1], "edges": [[0, 1], [1, 0]]}
            )
        with pytest.raises(ReproError):
            machine_from_dict({"num_procs": 2})

    def test_dag_roundtrip_keeps_edge_order_and_fingerprint(self):
        from repro.api.request import dag_fingerprint

        # edges out of source order: the wire lists them source-major
        dag = ComputationalDAG.from_edge_arrays(
            5, [3, 0, 2, 0, 1, 0], [4, 2, 3, 1, 4, 3], [1, 2.5, 3, 4, 0.5], [1, 0, 2, 1.25, 3]
        )
        back = dag_from_dict(json.loads(json.dumps(dag_to_dict(dag))))
        assert dag_fingerprint(back) == dag_fingerprint(dag)
        assert [list(column) for column in back.edge_arrays()] == [
            list(column) for column in dag.edge_arrays()
        ]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_nodes", 2.9),
            ("num_nodes", True),
            ("num_nodes", "2"),
            ("num_nodes", 10**30),
            ("edges", [[0, 1.7]]),
            ("edges", [[0.0, 1.0]]),
            ("edges", [[False, True]]),
            ("edges", [[0, True]]),
            ("edges", [["0", "1"]]),
            ("edges", [[0, 1, 5]]),
            ("edges", [[0, 1], [1]]),
            ("edges", [[0, 2**70]]),
            ("edges", "01"),
            ("work", [True, 1]),
            ("comm", ["1", "1"]),
            ("work", [float("nan"), 1]),
            ("comm", [1, float("inf")]),
        ],
    )
    def test_wire_dag_refuses_what_it_would_coerce(self, field, value):
        """Ids are integers and weights finite numbers: nothing is coerced."""
        data = {"num_nodes": 2, "work": [1, 1], "comm": [1, 1], "edges": [[0, 1]]}
        data[field] = value
        with pytest.raises(ReproError):
            dag_from_dict(data)


MTX_GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 1.0
2 1 2.0
2 2 -1.0
3 2 0.5
"""

MTX_SYMMETRIC = """%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
1 1
2 1
3 2
"""


class TestMatrixMarket:
    def test_general_pattern(self):
        pattern = loads_matrix_market_pattern(MTX_GENERAL)
        assert pattern.size == 3
        assert pattern.nnz == 4
        assert pattern.row(1) == (0, 1)

    def test_symmetric_expansion(self):
        pattern = loads_matrix_market_pattern(MTX_SYMMETRIC)
        # off-diagonal entries mirrored: (1,0)->(0,1) and (2,1)->(1,2)
        assert pattern.nnz == 5
        assert 1 in pattern.row(0)
        assert 2 in pattern.row(1)

    def test_file_reading_and_dag_generation(self, tmp_path):
        path = tmp_path / "matrix.mtx"
        path.write_text(MTX_GENERAL)
        pattern = read_matrix_market_pattern(path)
        dag = build_spmv_dag(pattern).dag
        assert dag.num_nodes > 0
        assert dag.is_acyclic()

    def test_rejects_malformed_inputs(self):
        with pytest.raises(DagError):
            loads_matrix_market_pattern("not a matrix\n1 1 1\n")
        with pytest.raises(DagError):
            loads_matrix_market_pattern("%%MatrixMarket matrix array real general\n3 3\n")
        with pytest.raises(DagError):
            loads_matrix_market_pattern("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n")
        with pytest.raises(DagError):
            loads_matrix_market_pattern("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n")


class TestAblationHelpers:
    @pytest.fixture(scope="class")
    def instances(self):
        from repro.dagdb import build_dataset

        return build_dataset("tiny", scale="bench", include_coarse=False)[:2]

    def test_local_search_components(self, instances):
        from repro.analysis import local_search_component_ablation

        machine = BspMachine.uniform(4, g=3, latency=5)
        ratios, text = local_search_component_ablation(instances, machine)
        assert ratios["init"] == pytest.approx(1.0)
        assert ratios["hc"] <= 1.0 + 1e-9
        assert ratios["hc+hccs"] <= ratios["hc"] + 1e-9
        assert "Ablation" in text

    def test_bspg_idle_fraction(self, instances):
        from repro.analysis import bspg_idle_fraction_ablation

        machine = BspMachine.uniform(4, g=2, latency=5)
        ratios, text = bspg_idle_fraction_ablation(instances, machine, fractions=(0.25, 0.5))
        assert ratios[0.5] == pytest.approx(1.0)
        assert set(ratios) == {0.25, 0.5}

    def test_comm_schedule_policy(self, instances):
        from repro.analysis import comm_schedule_policy_ablation

        machine = BspMachine.uniform(4, g=5, latency=5)
        ratios, text = comm_schedule_policy_ablation(instances, machine)
        assert ratios["lazy"] == pytest.approx(1.0)
        assert ratios["hccs"] <= 1.0 + 1e-9
        assert ratios["eager"] > 0

    def test_multilevel_refinement(self, instances):
        from repro.analysis import multilevel_refinement_ablation

        machine = BspMachine.numa_hierarchy(4, delta=3, g=1, latency=5)
        ratios, text = multilevel_refinement_ablation(instances, machine, intervals=(5, 20))
        assert ratios[5] == pytest.approx(1.0)
        assert 20 in ratios
