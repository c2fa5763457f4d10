"""Unit and integration tests for the framework pipelines (Figures 3 and 4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import BspMachine
from repro.core.exceptions import ConfigurationError
from repro.schedulers import (
    BspGreedyScheduler,
    Budget,
    CilkScheduler,
    HDaggScheduler,
    MultilevelPipeline,
    PipelineConfig,
    Scheduler,
    SchedulingPipeline,
    best_schedule,
)

from conftest import assert_valid_schedule, random_dag
from repro.dagdb import SparseMatrixPattern, build_cg_dag, build_spmv_dag


#: every clock off: node limit 1 stops each HiGHS solve at its root, and the
#: variable thresholds keep every model small, so each pipeline is a fixed
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


@pytest.fixture(scope="module")
def spmv_instance():
    pattern = SparseMatrixPattern.random(7, 0.35, seed=5, ensure_diagonal=True)
    return build_spmv_dag(pattern).dag


class _ExplodingScheduler(Scheduler):
    name = "exploding"

    def schedule(self, dag, machine, budget=None):
        raise RuntimeError("initialiser exploded")


class _RecordingScheduler(BspGreedyScheduler):
    def __init__(self, calls):
        super().__init__()
        self._calls = calls

    def schedule(self, dag, machine, budget=None):
        self._calls.append(self.name)
        return super().schedule(dag, machine, budget)


class TestPipelineConfig:
    def test_fast_config_is_smaller_than_default(self):
        default = PipelineConfig()
        fast = PipelineConfig.fast()
        assert fast.local_search_seconds < default.local_search_seconds
        assert fast.ilp_full_seconds < default.ilp_full_seconds
        assert fast.use_ilp and fast.use_comm_ilp

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hc_max_passes", "x"),
            ("hc_max_passes", -1),
            ("hc_max_passes", 2.0),
            ("hc_max_passes", None),
            ("hc_max_steps", -5),
            ("hccs_max_passes", True),
            ("ilp_node_limit", 1.5),
            ("ilp_init_max_procs", -4),
            ("ilp_full_max_variables", "20000"),
            ("local_search_seconds", math.nan),
            ("local_search_seconds", math.inf),
            ("ilp_full_seconds", -1.0),
            ("ilp_comm_seconds", "10"),
            ("use_ilp", 1),
            ("use_comm_ilp", None),
            ("seed", 0.5),
            ("seed", -1),
        ],
    )
    def test_malformed_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"PipelineConfig.{field}"):
            PipelineConfig(**{field: value})

    def test_boundary_values_accepted(self):
        config = PipelineConfig(
            hc_max_passes=0,
            hc_max_steps=0,
            ilp_node_limit=np.int64(1),
            local_search_seconds=0,
            ilp_full_seconds=np.float64(2.5),
            ilp_comm_seconds=None,
            seed=3,
        )
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_heuristics_only_factory(self):
        pipeline = SchedulingPipeline.heuristics_only()
        assert not pipeline.config.use_ilp
        assert not pipeline.config.use_comm_ilp

    def test_ilp_init_only_for_small_proc_counts(self):
        pipeline = SchedulingPipeline(PipelineConfig(ilp_init_max_procs=4))
        small = pipeline._initializers(BspMachine.uniform(4))
        large = pipeline._initializers(BspMachine.uniform(8))
        assert any(init.name == "ilp_init" for init in small)
        assert not any(init.name == "ilp_init" for init in large)

    def test_refinement_budget_threads_into_local_search(self):
        """The per-grid-point refinement caps reach the HC/HCcs improvers."""
        config = PipelineConfig(hc_max_passes=7, hc_max_steps=11, hccs_max_passes=3)
        hill_climb, comm_climb = SchedulingPipeline(config)._local_search()
        assert hill_climb.max_passes == 7
        assert hill_climb.max_steps == 11
        assert comm_climb.max_passes == 3


class TestBasePipeline:
    @pytest.mark.slow
    def test_stage_costs_monotonically_improve(self, spmv_instance):
        machine = BspMachine.uniform(4, g=3, latency=5)
        result = SchedulingPipeline(FAST).schedule_with_stages(spmv_instance, machine)
        stages = result.stages
        assert stages.best_init >= stages.after_local_search - 1e-9
        assert stages.after_local_search >= stages.after_ilp_assignment - 1e-9
        assert stages.after_ilp_assignment >= stages.after_comm_ilp - 1e-9
        assert result.schedule.cost() == pytest.approx(stages.final)
        assert_valid_schedule(result.schedule)

    @pytest.mark.slow
    def test_records_every_initializer(self, spmv_instance):
        machine = BspMachine.uniform(4, g=1, latency=5)
        result = SchedulingPipeline(FAST).schedule_with_stages(spmv_instance, machine)
        assert "bsp_greedy" in result.stages.initial
        assert "source" in result.stages.initial
        assert "ilp_init" in result.stages.initial  # P = 4 -> ILPinit runs
        assert result.stages.best_init == pytest.approx(min(result.stages.initial.values()))

    @pytest.mark.slow
    def test_beats_cilk_and_hdagg_on_comm_heavy_instance(self, spmv_instance):
        """The paper's core claim (§7.1): the framework beats both baselines."""
        machine = BspMachine.uniform(4, g=5, latency=5)
        ours = SchedulingPipeline(FAST).schedule(spmv_instance, machine)
        cilk = CilkScheduler(seed=0).schedule(spmv_instance, machine)
        hdagg = HDaggScheduler().schedule(spmv_instance, machine)
        assert ours.cost() <= cilk.cost()
        assert ours.cost() <= hdagg.cost()

    def test_heuristics_only_pipeline_valid(self, spmv_instance):
        machine = BspMachine.uniform(8, g=3, latency=5)
        schedule = SchedulingPipeline.heuristics_only(0.5).schedule(spmv_instance, machine)
        assert_valid_schedule(schedule)

    def test_single_processor_machine(self, spmv_instance):
        machine = BspMachine.uniform(1, g=3, latency=5)
        schedule = SchedulingPipeline(FAST).schedule(spmv_instance, machine)
        assert schedule.cost() == pytest.approx(spmv_instance.total_work + machine.latency)

    def test_serial_error_propagates_and_skips_later_tasks(self):
        dag = random_dag(20, 0.2, seed=3)
        machine = BspMachine.uniform(3, g=2, latency=2)
        calls: list[str] = []
        pipeline = SchedulingPipeline(
            PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=None)
        )
        pipeline._initializers = lambda machine: [
            _ExplodingScheduler(),
            _RecordingScheduler(calls),
        ]
        with pytest.raises(RuntimeError, match="initialiser exploded"):
            pipeline.schedule_with_stages(dag, machine)
        assert calls == []  # the initialiser loop stops at the failing one

    def test_respects_overall_time_budget(self, spmv_instance):
        machine = BspMachine.uniform(4, g=1, latency=5)
        budget = Budget(0.0)  # everything already expired
        schedule = SchedulingPipeline(FAST).schedule(spmv_instance, machine, budget)
        assert_valid_schedule(schedule)


class TestMultilevelPipeline:
    @pytest.mark.slow
    def test_valid_and_reasonable_under_numa(self):
        dag = build_cg_dag(
            SparseMatrixPattern.random(5, 0.35, seed=2, ensure_diagonal=True), 2
        ).dag
        machine = BspMachine.numa_hierarchy(8, delta=4, g=1, latency=5)
        ml = MultilevelPipeline(FAST).schedule(dag, machine)
        assert_valid_schedule(ml)
        # it must at least beat Cilk in this communication-dominated setting
        cilk = CilkScheduler(seed=0).schedule(dag, machine)
        assert ml.cost() <= cilk.cost()

    @pytest.mark.slow
    def test_custom_coarsening_ratio(self):
        dag = random_dag(40, 0.1, seed=3)
        machine = BspMachine.numa_hierarchy(8, delta=3, g=1, latency=5)
        ml = MultilevelPipeline(FAST, coarsening_ratios=(0.3,)).schedule(dag, machine)
        assert_valid_schedule(ml)


class TestBestSchedule:
    def test_best_schedule_selects_minimum(self, spmv_instance):
        machine = BspMachine.uniform(2, g=1, latency=1)
        a = CilkScheduler(seed=0).schedule(spmv_instance, machine)
        b = HDaggScheduler().schedule(spmv_instance, machine)
        assert best_schedule(a, b).cost() == min(a.cost(), b.cost())
        assert best_schedule(a, None) is a

    def test_best_schedule_requires_input(self):
        with pytest.raises(ValueError):
            best_schedule(None)
