"""Unit tests for the BSPg and Source initialisation heuristics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ScheduleRequest, SchedulerSpec, SchedulingService
from repro.core import BspMachine, ComputationalDAG, ConfigurationError, CycleError
from repro.schedulers import BspGreedyScheduler, CilkScheduler, SourceScheduler

from conftest import (
    ORACLE_GS,
    ORACLE_PROCS,
    assert_valid_schedule,
    build_chain_dag,
    build_diamond_dag,
    build_fork_join_dag,
    build_paper_example_dag,
    dag_from_edges,
    oracle_dag,
    oracle_machine,
    random_dag,
    time_limit,
)
from oracles.bsp_greedy import bsp_greedy_reference
from repro.dagdb import (
    SparseMatrixPattern,
    build_cg_dag,
    build_elimination_dag,
    build_fft_dag,
    build_spmv_dag,
    build_stencil2d_dag,
)


HEURISTICS = [BspGreedyScheduler, SourceScheduler]


class TestValidity:
    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    @pytest.mark.parametrize("num_procs", [1, 2, 4, 8])
    def test_valid_on_standard_dags(self, scheduler_cls, num_procs):
        machine = BspMachine.uniform(num_procs, g=2, latency=3)
        for dag in (
            build_chain_dag(7),
            build_diamond_dag(),
            build_fork_join_dag(9),
            build_paper_example_dag(),
        ):
            assert_valid_schedule(scheduler_cls().schedule(dag, machine))

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_valid_on_random_and_generated_dags(self, scheduler_cls):
        machine = BspMachine.uniform(4, g=3, latency=5)
        dags = [
            random_dag(40, 0.1, seed=s) for s in range(3)
        ] + [
            build_spmv_dag(SparseMatrixPattern.random(8, 0.3, seed=1)).dag,
            build_cg_dag(SparseMatrixPattern.random(5, 0.4, seed=2, ensure_diagonal=True), 2).dag,
        ]
        for dag in dags:
            assert_valid_schedule(scheduler_cls().schedule(dag, machine))

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_empty_and_singleton(self, scheduler_cls):
        machine = BspMachine.uniform(3)
        assert scheduler_cls().schedule(ComputationalDAG(0), machine).cost() == 0.0
        single = scheduler_cls().schedule(ComputationalDAG(1, [4], [1]), machine)
        assert single.cost() == 4.0 + machine.latency

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_numa_machines(self, scheduler_cls, numa_machine8):
        dag = random_dag(35, 0.12, seed=8)
        assert_valid_schedule(scheduler_cls().schedule(dag, numa_machine8))

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_every_node_assigned_exactly_once(self, scheduler_cls, spmv_dag, machine4):
        schedule = scheduler_cls().schedule(spmv_dag, machine4)
        assert len(schedule.procs) == spmv_dag.num_nodes
        assert schedule.supersteps.min() >= 0


class TestBspGreedy:
    def test_uses_multiple_processors_on_wide_dags(self):
        dag = build_fork_join_dag(16)
        machine = BspMachine.uniform(4, g=1, latency=1)
        schedule = BspGreedyScheduler().schedule(dag, machine)
        assert len(set(schedule.procs.tolist())) > 1

    def test_work_balanced_within_superstep(self):
        dag = build_fork_join_dag(32)
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = BspGreedyScheduler().schedule(dag, machine)
        breakdown = schedule.cost_breakdown()
        # the middle layer has 32 unit-work nodes over 4 procs; the maximum
        # should be close to the average (perfect would be 8)
        assert max(breakdown.work_per_superstep) <= 14

    def test_idle_fraction_parameter(self, spmv_dag, machine4):
        # any finite real number in (0, 1] is accepted, the ablation's 0.25-1.0 included
        for idle_fraction in (0.25, 0.5, 0.75, 1.0, 1, np.float64(0.5)):
            schedule = BspGreedyScheduler(idle_fraction=idle_fraction).schedule(spmv_dag, machine4)
            assert_valid_schedule(schedule)

    def test_beats_cilk_on_communication_heavy_instance(self):
        """BSPg is communication-aware, Cilk is not (paper §7.1 tendency)."""
        dag = build_spmv_dag(SparseMatrixPattern.random(10, 0.35, seed=7)).dag
        machine = BspMachine.uniform(4, g=5, latency=5)
        bspg = BspGreedyScheduler().schedule(dag, machine)
        cilk = CilkScheduler(seed=0).schedule(dag, machine)
        assert bspg.cost() <= cilk.cost()

    def test_cyclic_graph_raises_cycle_error(self):
        """A cycle leaves nodes that never become ready; BSPg must not loop on them."""
        # 0 -> 1 -> 2 -> 0 is a cycle; 3 -> 4 is schedulable
        dag = ComputationalDAG.from_edge_arrays(5, [0, 1, 2, 3], [1, 2, 0, 4])
        for num_procs in (1, 4):
            with time_limit(10), pytest.raises(CycleError):
                BspGreedyScheduler().schedule(dag, BspMachine.uniform(num_procs))


#: values of ``idle_fraction`` that are not a finite real number in (0, 1]
BAD_IDLE_FRACTIONS = [
    float("nan"), float("inf"), float("-inf"), "x", None, True, 0.0, -1.0, 2.0,
]


class TestBspGreedyConfiguration:
    @pytest.mark.parametrize("value", BAD_IDLE_FRACTIONS, ids=repr)
    def test_bad_idle_fraction_raises_configuration_error(self, value):
        with pytest.raises(ConfigurationError, match="idle_fraction"):
            BspGreedyScheduler(idle_fraction=value)

    @pytest.mark.parametrize("value", BAD_IDLE_FRACTIONS, ids=repr)
    def test_bad_idle_fraction_through_the_service(self, value):
        request = ScheduleRequest(
            dag=build_diamond_dag(),
            machine=BspMachine.uniform(4),
            scheduler=SchedulerSpec("bsp_greedy", {"idle_fraction": value}),
        )
        with pytest.raises(ConfigurationError, match="idle_fraction"):
            SchedulingService(cache_size=0).solve(request)


def assert_bsp_greedy_matches_oracle(
    dag: ComputationalDAG, machine: BspMachine, idle_fraction: float = 0.5
) -> None:
    schedule = BspGreedyScheduler(idle_fraction=idle_fraction).schedule(dag, machine)
    procs, supersteps = bsp_greedy_reference(dag, machine, idle_fraction)
    context = (
        f"n={dag.num_nodes}, P={machine.num_procs}, g={machine.g}, "
        f"idle_fraction={idle_fraction}"
    )
    assert schedule.procs.tolist() == procs, context
    assert schedule.supersteps.tolist() == supersteps, context


class TestBspGreedyOracle:
    """BSPg equals the per-candidate oracle exactly.

    The scheduler keeps per-processor presence bits and cached scores; the
    oracle rescans every pool candidate's predecessors and their successors
    at every pick.  ``procs`` and ``supersteps`` must be equal.
    """

    @pytest.mark.parametrize("numa", [False, True], ids=["uniform", "numa"])
    @pytest.mark.parametrize("weights", ["integer", "real", "decimal", "zero"])
    def test_random_dags(self, weights, numa):
        # 30 seeds per weight model and machine kind: 240 DAGs in all, each
        # at every idle fraction, each P at least 5 times per model and kind
        for seed in range(30):
            rng = np.random.default_rng(seed)
            dag = oracle_dag(rng, weights)
            num_procs = ORACLE_PROCS[seed % len(ORACLE_PROCS)]
            g = ORACLE_GS[(seed // len(ORACLE_PROCS)) % len(ORACLE_GS)]
            machine = oracle_machine(rng, num_procs, g, numa)
            for idle_fraction in (0.25, 0.5, 1.0):
                assert_bsp_greedy_matches_oracle(dag, machine, idle_fraction)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: build_fft_dag(128, track_roles=False).dag, id="fft(128)"),
            pytest.param(
                lambda: build_stencil2d_dag(8, 5, track_roles=False).dag, id="stencil2d(8,5)"
            ),
            pytest.param(
                lambda: build_elimination_dag(
                    SparseMatrixPattern.banded(200, 8), track_roles=False
                ).dag,
                id="banded_cholesky(200,8)",
            ),
        ],
    )
    def test_structured_dags_on_eight_processors(self, build):
        assert_bsp_greedy_matches_oracle(build(), BspMachine.uniform(8, g=3, latency=5))


class TestSource:
    def test_first_superstep_clusters_shared_successors(self):
        """Sources feeding the same node start on the same processor."""
        # sources 0,1 share successor 4; sources 2,3 share successor 5
        dag = dag_from_edges(6, [(0, 4), (1, 4), (2, 5), (3, 5)])
        machine = BspMachine.uniform(4, g=1, latency=1)
        schedule = SourceScheduler().schedule(dag, machine)
        assert schedule.proc_of(0) == schedule.proc_of(1)
        assert schedule.proc_of(2) == schedule.proc_of(3)

    def test_pulls_single_owner_successors_into_superstep(self):
        """The pull rule merges a node into its single owner's superstep (Algorithm 2)."""
        dag = dag_from_edges(3, [(0, 1), (1, 2)])
        machine = BspMachine.uniform(2, g=1, latency=1)
        schedule = SourceScheduler().schedule(dag, machine)
        # node 1 is pulled next to node 0; node 2 (successor of a pulled node,
        # not of a source) starts the next superstep
        assert schedule.superstep_of(1) == schedule.superstep_of(0)
        assert schedule.proc_of(1) == schedule.proc_of(0)
        assert schedule.num_supersteps == 2

    def test_star_successors_follow_their_source(self):
        """Successors of one source are pulled onto its processor (no communication)."""
        dag = dag_from_edges(9, [(0, i) for i in range(1, 9)], work=[1, 8, 7, 6, 5, 4, 3, 2, 1])
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = SourceScheduler().schedule(dag, machine)
        assert all(schedule.proc_of(v) == schedule.proc_of(0) for v in range(1, 9))
        assert schedule.num_supersteps == 1

    def test_round_robin_balances_by_decreasing_work(self):
        """A layer whose nodes depend on several processors is spread round-robin."""
        # four independent chains A_i -> B_i (distinct processors), then a layer
        # of nodes with decreasing work that each depend on two different chains
        # (so the pull rule cannot absorb them)
        works = [1] * 8 + [8, 7, 6, 5, 4, 3, 2, 1]
        edges = [(i, 4 + i) for i in range(4)]
        for j in range(8):
            edges += [(4 + (j % 4), 8 + j), (4 + ((j + 1) % 4), 8 + j)]
        dag = dag_from_edges(16, edges, work=works)
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = SourceScheduler().schedule(dag, machine)
        layer_step = schedule.superstep_of(8)
        breakdown = schedule.cost_breakdown()
        # decreasing-order round-robin keeps the maximum close to the mean (36/4 = 9)
        assert breakdown.work_per_superstep[layer_step] <= 12

    def test_good_for_shallow_spmv(self):
        """The paper finds Source effective on shallow spmv DAGs."""
        dag = build_spmv_dag(SparseMatrixPattern.random(12, 0.3, seed=11)).dag
        machine = BspMachine.uniform(4, g=1, latency=5)
        source = SourceScheduler().schedule(dag, machine)
        cilk = CilkScheduler(seed=0).schedule(dag, machine)
        assert source.cost() <= cilk.cost()
        assert source.num_supersteps <= 4
