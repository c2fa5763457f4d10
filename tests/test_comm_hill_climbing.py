"""Unit tests for the HCcs communication-schedule local search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, BspSchedule
from repro.schedulers import CommScheduleHillClimbing
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import assert_valid_schedule, dag_from_edges, random_dag


def _bottleneck_instance():
    """Rescheduling a flexible transfer into an already-paid-for phase helps.

    Phase 0 is dominated by a mandatory transfer of volume 10 (node 4 to node
    5).  The lazy schedule sends the two volume-3 values of processor 0 in
    phase 1, where their combined send volume of 6 defines the h-relation.
    Moving one of them into phase 0 rides along the existing maximum
    (10 >= 3 + 3), reducing the phase-1 cost from 6 to 3.
    """
    dag = dag_from_edges(6, [(0, 2), (1, 3), (4, 5)], [1] * 6, [3, 3, 1, 1, 10, 1])
    machine = BspMachine.uniform(4, g=2, latency=1)
    procs = np.array([0, 0, 1, 2, 2, 3])
    steps = np.array([0, 0, 2, 2, 0, 1])
    return BspSchedule(dag, machine, procs, steps), dag, machine


class TestCommHillClimbing:
    def test_reduces_send_bottleneck(self):
        schedule, _, machine = _bottleneck_instance()
        improved = CommScheduleHillClimbing().improve(schedule)
        assert improved.cost() < schedule.cost()
        assert_valid_schedule(improved)
        # both volume-3 sends of processor 0 ride along the mandatory volume-10
        # transfer in phase 0, so the whole communication cost collapses to it
        assert improved.cost_breakdown().comm == pytest.approx(machine.g * 10)

    def test_keeps_assignment_fixed(self):
        schedule, _, _ = _bottleneck_instance()
        improved = CommScheduleHillClimbing().improve(schedule)
        assert np.array_equal(improved.procs, schedule.procs)
        assert np.array_equal(improved.supersteps, schedule.supersteps)

    def test_never_worse_on_random_schedules(self, machine4):
        for seed in range(4):
            dag = random_dag(25, 0.15, seed=seed)
            start = RoundRobinScheduler().schedule(dag, machine4)
            improved = CommScheduleHillClimbing().improve(start)
            assert improved.cost() <= start.cost()
            assert_valid_schedule(improved)

    def test_no_required_transfers_is_noop(self, machine4):
        dag = random_dag(10, 0.2, seed=1)
        trivial = BspSchedule.trivial(dag, machine4)
        assert CommScheduleHillClimbing().improve(trivial) is trivial

    def test_single_phase_windows_cannot_move(self):
        """When every window has width one the lazy schedule is already optimal."""
        dag = dag_from_edges(2, [(0, 1)], [1, 1], [2, 1])
        machine = BspMachine.uniform(2, g=1, latency=1)
        schedule = BspSchedule(dag, machine, [0, 1], [0, 1])
        improved = CommScheduleHillClimbing().improve(schedule)
        assert improved.cost() == schedule.cost()

    def test_starts_from_explicit_schedule_when_given(self):
        schedule, _, _ = _bottleneck_instance()
        first = CommScheduleHillClimbing().improve(schedule)
        again = CommScheduleHillClimbing().improve(first)
        assert again.cost() <= first.cost()
        assert_valid_schedule(again)

    def test_numa_costs_respected(self):
        dag = dag_from_edges(4, [(0, 2), (1, 3)], [1, 1, 1, 1], [5, 5, 1, 1])
        machine = BspMachine.numa_hierarchy(4, delta=4, g=1, latency=1)
        schedule = BspSchedule(
            dag, machine, np.array([0, 0, 2, 3]), np.array([0, 0, 2, 2])
        )
        improved = CommScheduleHillClimbing().improve(schedule)
        assert improved.cost() <= schedule.cost()
        assert_valid_schedule(improved)
