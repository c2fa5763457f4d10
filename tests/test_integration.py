"""End-to-end integration tests reproducing the qualitative claims of the paper."""

from __future__ import annotations

import pytest

from repro.analysis import aggregate_improvement, run_no_numa_grid, run_numa_grid
from repro.core import BspMachine, BspSchedule
from repro.dagdb import SparseMatrixPattern, build_cg_dag, build_iterated_spmv_dag
from repro.schedulers import (
    CilkScheduler,
    HDaggScheduler,
    MultilevelPipeline,
    PipelineConfig,
    SchedulingPipeline,
)

from conftest import assert_valid_schedule


#: every clock off: node limit 1 stops each HiGHS solve at its root, and the
#: variable thresholds keep every model small, so each solve is a fixed
#: amount of work whatever the machine's load
FAST = PipelineConfig(
    local_search_seconds=None,
    ilp_full_seconds=None,
    ilp_partial_seconds=None,
    ilp_comm_seconds=None,
    ilp_init_seconds=None,
    ilp_node_limit=1,
    ilp_full_max_variables=600,
    ilp_partial_max_variables=300,
    ilp_init_max_variables=200,
)
FAST_HEURISTIC = PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=None)


@pytest.fixture(scope="module")
def exp_dag():
    pattern = SparseMatrixPattern.random(8, 0.3, seed=5, ensure_diagonal=True)
    return build_iterated_spmv_dag(pattern, 3).dag


class TestSection71NoNuma:
    """Qualitative reproduction of §7.1: the framework beats Cilk and HDagg."""

    def test_framework_beats_baselines_on_single_instance(self, exp_dag):
        machine = BspMachine.uniform(8, g=3, latency=5)
        result = SchedulingPipeline(FAST).schedule_with_stages(exp_dag, machine)
        cilk = CilkScheduler(seed=0).schedule(exp_dag, machine)
        hdagg = HDaggScheduler().schedule(exp_dag, machine)
        assert result.schedule.cost() < cilk.cost()
        assert result.schedule.cost() <= hdagg.cost()
        assert_valid_schedule(result.schedule)

    def test_improvement_grows_with_g(self):
        """Table 1 trend: the gap to Cilk widens as g grows."""
        records = run_no_numa_grid(
            datasets=("tiny",),
            procs=(8,),
            g_values=(1, 5),
            config=FAST_HEURISTIC,
            max_instances_per_dataset=4,
        )
        low_g = [r for r in records if r.spec.g == 1]
        high_g = [r for r in records if r.spec.g == 5]
        assert aggregate_improvement(high_g, "final", "cilk") >= aggregate_improvement(
            low_g, "final", "cilk"
        ) - 0.05

    @pytest.mark.slow
    def test_stagewise_improvements(self, exp_dag):
        """Figure 5 shape: Init <= HDagg-ish region, HCcs and ILP improve further."""
        machine = BspMachine.uniform(4, g=5, latency=5)
        result = SchedulingPipeline(FAST).schedule_with_stages(exp_dag, machine)
        cilk_cost = CilkScheduler(seed=0).schedule(exp_dag, machine).cost()
        stages = result.stages
        assert stages.best_init < cilk_cost
        assert stages.after_local_search <= stages.best_init
        assert stages.final <= stages.after_local_search


class TestSection72Numa:
    """Qualitative reproduction of §7.2: larger gains under NUMA effects."""

    def test_numa_improvement_larger_than_uniform(self):
        no_numa = run_no_numa_grid(
            datasets=("tiny",),
            procs=(8,),
            g_values=(1,),
            config=FAST_HEURISTIC,
            max_instances_per_dataset=3,
        )
        numa = run_numa_grid(
            datasets=("tiny",),
            procs=(8,),
            deltas=(4,),
            config=FAST_HEURISTIC,
            max_instances_per_dataset=3,
        )
        uniform_gain = aggregate_improvement(no_numa, "final", "cilk")
        numa_gain = aggregate_improvement(numa, "final", "cilk")
        assert numa_gain > uniform_gain

    def test_improvement_grows_with_delta(self):
        records = run_numa_grid(
            datasets=("tiny",),
            procs=(8,),
            deltas=(2, 4),
            config=FAST_HEURISTIC,
            max_instances_per_dataset=3,
        )
        low = [r for r in records if r.spec.numa_delta == 2]
        high = [r for r in records if r.spec.numa_delta == 4]
        assert aggregate_improvement(high, "final", "cilk") >= aggregate_improvement(
            low, "final", "cilk"
        ) - 0.05


class TestSection73Multilevel:
    """Qualitative reproduction of §7.3: multilevel wins when communication dominates."""

    @pytest.mark.slow
    def test_multilevel_beats_base_under_extreme_numa(self):
        dag = build_cg_dag(
            SparseMatrixPattern.random(6, 0.3, seed=3, ensure_diagonal=True), 3
        ).dag
        machine = BspMachine.numa_hierarchy(16, delta=4, g=1, latency=5)
        base = SchedulingPipeline(FAST_HEURISTIC).schedule(dag, machine)
        ml = MultilevelPipeline(FAST_HEURISTIC).schedule(dag, machine)
        assert ml.cost() <= base.cost()
        assert_valid_schedule(ml)

    def test_multilevel_not_needed_without_numa(self):
        """Without NUMA the base scheduler is competitive with (or better than) ML."""
        dag = build_iterated_spmv_dag(
            SparseMatrixPattern.random(6, 0.35, seed=2, ensure_diagonal=True), 2
        ).dag
        machine = BspMachine.uniform(4, g=1, latency=5)
        base = SchedulingPipeline(FAST_HEURISTIC).schedule(dag, machine)
        ml = MultilevelPipeline(FAST_HEURISTIC).schedule(dag, machine)
        assert base.cost() <= ml.cost() * 1.3

    @pytest.mark.slow
    def test_multilevel_close_to_trivial_in_pathological_regime(self):
        dag = build_cg_dag(
            SparseMatrixPattern.random(5, 0.3, seed=9, ensure_diagonal=True), 2
        ).dag
        machine = BspMachine.numa_hierarchy(16, delta=4, g=1, latency=5)
        ml = MultilevelPipeline(FAST_HEURISTIC).schedule(dag, machine)
        trivial = BspSchedule.trivial(dag, machine)
        assert ml.cost() <= 1.25 * trivial.cost()
