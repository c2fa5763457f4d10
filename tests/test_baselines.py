"""Unit tests for the baseline schedulers: trivial, round-robin, Cilk, BL-EST, ETF, HDagg."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, ComputationalDAG
from repro.dagdb import build_fft_dag
from repro.schedulers import (
    BlEstScheduler,
    CilkScheduler,
    EtfScheduler,
    HDaggScheduler,
    RoundRobinScheduler,
    TrivialScheduler,
)

from conftest import (
    ORACLE_GS,
    ORACLE_PROCS,
    assert_valid_schedule,
    build_chain_dag,
    build_diamond_dag,
    build_fork_join_dag,
    build_paper_example_dag,
    oracle_dag,
    oracle_machine,
    random_dag,
)
from oracles.baselines import CilkReference, HDaggReference
from oracles.listsched import bl_est_reference, etf_reference

ALL_BASELINES = [
    TrivialScheduler,
    RoundRobinScheduler,
    CilkScheduler,
    BlEstScheduler,
    EtfScheduler,
]


class TestAllBaselinesProduceValidSchedules:
    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    @pytest.mark.parametrize("num_procs", [1, 2, 4])
    def test_valid_on_small_dags(self, scheduler_cls, num_procs):
        machine = BspMachine.uniform(num_procs, g=2, latency=3)
        for dag in (
            build_chain_dag(6),
            build_diamond_dag(),
            build_fork_join_dag(5),
            build_paper_example_dag(),
        ):
            schedule = scheduler_cls().schedule(dag, machine)
            assert_valid_schedule(schedule)
            assert schedule.dag is dag

    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    def test_valid_on_random_dags(self, scheduler_cls):
        machine = BspMachine.uniform(4, g=1, latency=1)
        for seed in range(3):
            dag = random_dag(30, 0.15, seed=seed)
            assert_valid_schedule(scheduler_cls().schedule(dag, machine))

    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    def test_empty_dag(self, scheduler_cls):
        machine = BspMachine.uniform(2)
        dag = ComputationalDAG(0)
        schedule = scheduler_cls().schedule(dag, machine)
        assert schedule.cost() == 0.0

    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    def test_numa_machine(self, scheduler_cls, numa_machine8):
        dag = random_dag(25, 0.2, seed=4)
        assert_valid_schedule(scheduler_cls().schedule(dag, numa_machine8))


class TestTrivial:
    def test_cost_equals_serial_work_plus_latency(self):
        dag = random_dag(20, 0.2, seed=0)
        machine = BspMachine.uniform(8, g=5, latency=7)
        schedule = TrivialScheduler().schedule(dag, machine)
        assert schedule.cost() == dag.total_work + machine.latency
        assert schedule.num_supersteps == 1


class TestCilk:
    def test_deterministic_with_seed(self, spmv_dag, machine4):
        a = CilkScheduler(seed=1).schedule(spmv_dag, machine4)
        b = CilkScheduler(seed=1).schedule(spmv_dag, machine4)
        assert a.cost() == b.cost()
        assert np.array_equal(a.procs, b.procs)

    def test_work_stealing_spreads_independent_work(self):
        """With plenty of independent tasks, more than one processor gets used."""
        dag = build_fork_join_dag(16)
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = CilkScheduler(seed=0).schedule(dag, machine)
        assert len(set(schedule.procs)) > 1

    def test_classical_schedule_no_idle_when_work_available(self):
        """Greedy work stealing keeps the makespan near total_work / P for wide DAGs."""
        dag = build_fork_join_dag(32)
        classical = CilkScheduler(seed=0).classical_schedule(dag, 4)
        classical.validate()
        lower_bound = dag.total_work / 4
        assert classical.makespan <= 2 * lower_bound + 2

    def test_chain_stays_on_one_processor(self):
        dag = build_chain_dag(10)
        classical = CilkScheduler(seed=0).classical_schedule(dag, 4)
        # a chain has no parallelism: every node should run on the processor
        # that finished its predecessor (no steal can happen on an empty stack)
        assert len(set(classical.procs.tolist())) == 1

    def test_zero_work_nodes_handled(self):
        dag = ComputationalDAG(4, [0, 0, 1, 1])
        dag.add_edges([(0, 1), (1, 2), (2, 3)])
        machine = BspMachine.uniform(2)
        assert_valid_schedule(CilkScheduler().schedule(dag, machine))


class TestListSchedulers:
    def test_bl_est_priority_is_bottom_level(self):
        """The node with the longest outgoing path is scheduled first."""
        dag = ComputationalDAG(4, [1, 1, 5, 1])
        dag.add_edges([(0, 2), (1, 3)])
        dag.set_work(2, 5)  # branch through node 2 is heavier
        classical = BlEstScheduler().classical_schedule(dag, BspMachine.uniform(1))
        assert classical.start_times[0] < classical.start_times[1]

    def test_etf_picks_globally_earliest_start(self):
        """Fork-join(4), unit weights, P=2, g=1: every delay is 1 (λ̄ = 1).

        Bottom levels: 3 for the source 0, 2 for 1..4, 1 for the sink 5.
        - 0: both processors start at 0; the tie goes to p0 (0-1).
        - 1..4 become ready at 1 on p0 and at 1 + 1 = 2 on p1.  The
          earliest pair is (1, p0) at 1 (1-2).
        - Next, all six pairs of 2..4 start at 2; the smallest node and
          processor win: (2, p0) (2-3).
        - p0 is now busy until 3, p1 still offers 2: (3, p1) (2-3).
        - Node 4 starts at 3 on both; the tie goes to p0 (3-4).
        - Sink 5 on p0: data from 3 on p1 arrives at 3 + 1 = 4, p0 is free
          at 4, so it starts at 4.  On p1 the data of 4 would arrive at 5.
        """
        dag = build_fork_join_dag(4)
        machine = BspMachine.uniform(2, g=1)
        classical = EtfScheduler().classical_schedule(dag, machine)
        classical.validate()
        assert classical.procs.tolist() == [0, 0, 0, 1, 0, 0]
        assert classical.start_times.tolist() == [0.0, 1.0, 2.0, 2.0, 3.0, 4.0]

    def test_est_accounts_for_communication_volume(self):
        """With huge comm weights, both successors of a node stay on its processor."""
        dag = ComputationalDAG(3, [1, 1, 1], [100, 1, 1])
        dag.add_edges([(0, 1), (0, 2)])
        machine = BspMachine.uniform(2, g=10)
        for scheduler in (BlEstScheduler(), EtfScheduler()):
            classical = scheduler.classical_schedule(dag, machine)
            assert classical.procs[1] == classical.procs[0]
            assert classical.procs[2] == classical.procs[0]

    def test_est_ignores_communication_when_free(self):
        """With g = 0 the successors can spread across processors."""
        dag = build_fork_join_dag(8)
        machine = BspMachine.uniform(4, g=0)
        classical = EtfScheduler().classical_schedule(dag, machine)
        assert len(set(classical.procs.tolist())) > 1

    def test_numa_average_multiplier_used(self):
        dag = ComputationalDAG(2, [1, 1], [10, 1])
        dag.add_edge(0, 1)
        numa = BspMachine.numa_hierarchy(4, delta=4, g=1)
        classical = BlEstScheduler().classical_schedule(dag, numa)
        # the communication penalty (10 * avg lambda > 10) far exceeds any
        # waiting time, so node 1 is co-located with node 0
        assert classical.procs[1] == classical.procs[0]


def assert_list_schedules_match_oracle(dag: ComputationalDAG, machine: BspMachine) -> None:
    for scheduler, reference in ((EtfScheduler(), etf_reference), (BlEstScheduler(), bl_est_reference)):
        classical = scheduler.classical_schedule(dag, machine)
        procs, start_times, finish_times = reference(dag, machine)
        context = f"{scheduler.name} on n={dag.num_nodes}, P={machine.num_procs}, g={machine.g}"
        assert classical.procs.tolist() == procs, context
        assert classical.start_times.tolist() == start_times, context
        assert classical.finish_times.tolist() == finish_times, context


class TestListSchedulerOracle:
    """ETF and BL-EST equal the plain-loop per-pair walk exactly.

    The schedulers keep one data-ready row per ready node and pick with
    array reductions; the oracle re-derives every (node, processor) start
    time at every pick.  Procs, start and finish times must be equal, not
    close.
    """

    @pytest.mark.parametrize("numa", [False, True], ids=["uniform", "numa"])
    @pytest.mark.parametrize("weights", ["integer", "real", "decimal", "zero"])
    def test_random_dags(self, weights, numa):
        # 30 seeds per weight model and machine kind: 240 DAGs in all,
        # each (P, g) pair at least once per model and machine kind
        for seed in range(30):
            rng = np.random.default_rng(seed)
            dag = oracle_dag(rng, weights)
            num_procs = ORACLE_PROCS[seed % len(ORACLE_PROCS)]
            g = ORACLE_GS[(seed // len(ORACLE_PROCS)) % len(ORACLE_GS)]
            machine = oracle_machine(rng, num_procs, g, numa)
            assert_list_schedules_match_oracle(dag, machine)

    @pytest.mark.parametrize("num_procs", ORACLE_PROCS)
    def test_tie_heavy_dags(self, num_procs):
        """Unit weights with g = 0: every pick is decided by the tie-break."""
        machine = BspMachine.uniform(num_procs, g=0)
        dags = [build_fork_join_dag(width) for width in (1, 3, 8, 17)]
        dags += [build_fft_dag(points, weight_model="unit").dag for points in (2, 4, 8, 16)]
        for dag in dags:
            assert_list_schedules_match_oracle(dag, machine)


def assert_cilk_and_hdagg_match_oracle(dag: ComputationalDAG, machine: BspMachine) -> None:
    context = f"n={dag.num_nodes}, P={machine.num_procs}"
    for seed in range(4):
        classical = CilkScheduler(seed=seed).classical_schedule(dag, machine.num_procs)
        expected = CilkReference(seed=seed).classical_schedule(dag, machine.num_procs)
        for times in ("procs", "start_times", "finish_times"):
            got = getattr(classical, times).tobytes()
            assert got == getattr(expected, times).tobytes(), (times, seed, context)
    for max_group_levels in (16, 3, 50):
        got = HDaggScheduler(max_group_levels=max_group_levels).schedule(dag, machine)
        expected = HDaggReference(max_group_levels=max_group_levels).schedule(dag, machine)
        assert got.procs.tobytes() == expected.procs.tobytes(), (max_group_levels, context)
        assert got.supersteps.tobytes() == expected.supersteps.tobytes(), (
            max_group_levels,
            context,
        )


class TestCilkAndHDaggOracle:
    """Cilk and HDagg equal their first implementations exactly.

    Cilk ends a dispatch round once no task is queued, and HDagg no longer
    counts a growing group's units; the oracles scan every stack and
    recompute every component of the group at each wavefront.  Cilk's
    procs, start and finish times and HDagg's procs and supersteps must be
    equal, not close.
    """

    @pytest.mark.parametrize("numa", [False, True], ids=["uniform", "numa"])
    @pytest.mark.parametrize("weights", ["integer", "real", "zero"])
    def test_random_dags(self, weights, numa):
        for seed in range(24):
            rng = np.random.default_rng(500 + seed)
            dag = oracle_dag(rng, weights)
            num_procs = ORACLE_PROCS[seed % len(ORACLE_PROCS)]
            machine = oracle_machine(rng, num_procs, 2.0, numa)
            assert_cilk_and_hdagg_match_oracle(dag, machine)

    @pytest.mark.parametrize("num_procs", ORACLE_PROCS)
    def test_structured_dags(self, num_procs):
        """Fork-join, fft and chain DAGs: fat wavefronts, thin ones and tied finishes."""
        machine = BspMachine.uniform(num_procs, g=1)
        dags = [build_fork_join_dag(width) for width in (1, 3, 8, 17)]
        dags += [build_fft_dag(points, weight_model="unit").dag for points in (2, 4, 8, 16)]
        dags += [build_chain_dag(20), random_dag(120, 0.03, seed=num_procs)]
        for dag in dags:
            assert_cilk_and_hdagg_match_oracle(dag, machine)
