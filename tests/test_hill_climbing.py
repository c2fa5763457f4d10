"""Unit tests for the HC local search and its incremental cost tracker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, BspSchedule, ComputationalDAG
from repro.schedulers import BspGreedyScheduler, Budget, HillClimbingImprover, LazyCostTracker
from repro.schedulers.hill_climbing import CLOCK, CONVERGED, PASS_CAP, STEP_CAP
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import assert_valid_schedule, build_diamond_dag, build_fork_join_dag, random_dag


class TestLazyCostTracker:
    def _make(self, dag, machine, procs, steps):
        return LazyCostTracker(dag, machine, np.array(procs), np.array(steps))

    def test_initial_cost_matches_schedule_cost(self):
        dag = build_diamond_dag()
        machine = BspMachine.uniform(2, g=2, latency=3)
        schedule = BspSchedule(dag, machine, [0, 0, 1, 0], [0, 1, 1, 2])
        tracker = self._make(dag, machine, [0, 0, 1, 0], [0, 1, 1, 2])
        assert tracker.cost() == pytest.approx(schedule.cost())

    def test_initial_cost_matches_for_random_schedules(self):
        machine = BspMachine.numa_hierarchy(4, delta=2, g=3, latency=5)
        for seed in range(5):
            dag = random_dag(25, 0.15, seed=seed)
            schedule = RoundRobinScheduler().schedule(dag, machine)
            tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
            assert tracker.cost() == pytest.approx(schedule.cost())

    def test_apply_move_delta_matches_full_reevaluation(self):
        machine = BspMachine.uniform(3, g=2, latency=1)
        dag = random_dag(20, 0.2, seed=3)
        schedule = RoundRobinScheduler().schedule(dag, machine)
        tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
        rng = np.random.default_rng(0)
        moves_checked = 0
        for _ in range(200):
            v = int(rng.integers(dag.num_nodes))
            new_proc = int(rng.integers(machine.num_procs))
            new_step = int(tracker.supersteps[v]) + int(rng.integers(-1, 2))
            if not tracker.is_valid_move(v, new_proc, new_step):
                continue
            before = tracker.cost()
            delta = tracker.apply_move(v, new_proc, new_step)
            after = tracker.cost()
            assert after == pytest.approx(before + delta)
            # the tracker must agree with a from-scratch evaluation
            fresh = BspSchedule(
                dag, machine, tracker.procs, tracker.supersteps, validate=False
            )
            # compare against the exact cost restricted to the same number of supersteps
            expected = LazyCostTracker(
                dag, machine, tracker.procs, tracker.supersteps, tracker.num_supersteps
            ).cost()
            assert after == pytest.approx(expected)
            assert fresh.is_valid()
            moves_checked += 1
        assert moves_checked > 20

    def test_inverse_move_restores_cost(self):
        machine = BspMachine.uniform(2, g=1, latency=2)
        dag = build_fork_join_dag(6)
        schedule = RoundRobinScheduler().schedule(dag, machine)
        tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
        original = tracker.cost()
        for v in dag.nodes():
            p, s = int(tracker.procs[v]), int(tracker.supersteps[v])
            for q in range(machine.num_procs):
                if q == p or not tracker.is_valid_move(v, q, s):
                    continue
                tracker.apply_move(v, q, s)
                tracker.apply_move(v, p, s)
                assert tracker.cost() == pytest.approx(original)

    def test_is_valid_move_respects_dependencies(self):
        dag = build_diamond_dag()
        machine = BspMachine.uniform(2, g=1, latency=1)
        tracker = self._make(dag, machine, [0, 0, 1, 0], [0, 1, 1, 2])
        # moving node 3 into superstep 1 would tie it with its cross-processor
        # predecessor 2 -> invalid
        assert not tracker.is_valid_move(3, 0, 1)
        # moving node 1 onto processor 1 in superstep 1 is fine
        assert tracker.is_valid_move(1, 1, 1)
        # moving node 0 after its successors is invalid
        assert not tracker.is_valid_move(0, 0, 2)
        # out-of-range supersteps/processors are invalid
        assert not tracker.is_valid_move(0, 0, -1)
        assert not tracker.is_valid_move(0, 0, 3)
        assert not tracker.is_valid_move(0, 5, 0)

    def test_moves_with_numa_costs(self):
        machine = BspMachine.numa_hierarchy(4, delta=3, g=1, latency=0)
        dag = build_diamond_dag()
        tracker = self._make(dag, machine, [0, 0, 3, 0], [0, 1, 1, 2])
        base = tracker.cost()
        # moving node 2 next to its predecessor removes the expensive transfer
        delta = tracker.apply_move(2, 0, 1)
        assert delta < 0
        assert tracker.cost() == pytest.approx(base + delta)


class TestHillClimbingImprover:
    def test_never_worse_and_valid(self, machine4):
        for seed in range(4):
            dag = random_dag(30, 0.15, seed=seed)
            start = RoundRobinScheduler().schedule(dag, machine4)
            improved = HillClimbingImprover().improve(start)
            assert improved.cost() <= start.cost()
            assert_valid_schedule(improved)

    def test_improves_obviously_bad_schedule(self):
        """A round-robin schedule of a chain is terrible; HC must fix most of it."""
        dag = ComputationalDAG(10)
        for i in range(9):
            dag.add_edge(i, i + 1)
        machine = BspMachine.uniform(4, g=5, latency=1)
        start = RoundRobinScheduler().schedule(dag, machine)
        improved = HillClimbingImprover().improve(start)
        assert improved.cost() < start.cost()

    def test_respects_max_steps(self, machine4):
        dag = random_dag(30, 0.15, seed=1)
        start = RoundRobinScheduler().schedule(dag, machine4)
        limited = HillClimbingImprover(max_steps=1).improve(start)
        unlimited = HillClimbingImprover().improve(start)
        assert unlimited.cost() <= limited.cost() <= start.cost()

    def test_respects_time_budget(self, machine4):
        dag = random_dag(40, 0.1, seed=2)
        start = RoundRobinScheduler().schedule(dag, machine4)
        # an already-expired budget must still return a schedule no worse than the input
        budget = Budget(0.0)
        improved = HillClimbingImprover().improve(start, budget)
        assert improved.cost() <= start.cost()

    def test_local_minimum_is_fixed_point(self, machine4):
        dag = random_dag(20, 0.2, seed=5)
        start = BspGreedyScheduler().schedule(dag, machine4)
        once = HillClimbingImprover().improve(start)
        twice = HillClimbingImprover().improve(once)
        assert twice.cost() == pytest.approx(once.cost())

    def test_single_node_and_empty_dag(self, machine4):
        empty = RoundRobinScheduler().schedule(ComputationalDAG(0), machine4)
        assert HillClimbingImprover().improve(empty).cost() == 0.0
        single = RoundRobinScheduler().schedule(ComputationalDAG(1), machine4)
        improved = HillClimbingImprover().improve(single)
        assert improved.cost() <= single.cost()


class TestStopReason:
    """``last_stop`` says why the last climb stopped."""

    @pytest.fixture
    def start(self, machine4):
        return RoundRobinScheduler().schedule(random_dag(30, 0.15, seed=1), machine4)

    def test_converged(self, start):
        improver = HillClimbingImprover(record_moves=True)
        improver.improve(start)
        assert improver.last_moves
        assert improver.last_stop == CONVERGED

    @pytest.mark.parametrize("improver, budget", [
        (HillClimbingImprover(max_steps=3), None),
        (HillClimbingImprover(), Budget(max_steps=3)),
        (HillClimbingImprover(max_steps=0), None),
    ], ids=["improver_cap", "budget_cap", "zero_cap"])
    def test_step_cap(self, start, improver, budget):
        improver.improve(start, budget)
        assert improver.last_stop == STEP_CAP

    @pytest.mark.parametrize("max_passes", [0, 1])
    def test_pass_cap(self, start, max_passes):
        improver = HillClimbingImprover(max_passes=max_passes)
        improver.improve(start)
        assert improver.last_stop == PASS_CAP

    def test_clock_before_the_first_pass(self, start):
        improver = HillClimbingImprover()
        improver.improve(start, Budget(0.0))
        assert improver.last_stop == CLOCK

    def test_clock_cutting_a_pass_short_is_not_convergence(self, start):
        """A pass the clock stopped before its first block accepts nothing."""
        budget = Budget()
        answers = iter([False, True])
        budget.expired = lambda: next(answers, True)
        improver = HillClimbingImprover()
        tracker = LazyCostTracker(start.dag, start.machine, start.procs, start.supersteps)
        assert improver.climb(tracker, budget) == 0
        assert improver.last_stop == CLOCK

    def test_empty_dag_is_converged(self, machine4):
        improver = HillClimbingImprover(max_passes=0)
        improver.improve(RoundRobinScheduler().schedule(ComputationalDAG(0), machine4))
        assert improver.last_stop == CONVERGED
