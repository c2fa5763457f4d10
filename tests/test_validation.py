"""Unit tests for BSP schedule validity checking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BspMachine,
    BspSchedule,
    CommStep,
    ComputationalDAG,
    ScheduleError,
    required_transfers,
    schedule_violations,
    validate_schedule,
)

from conftest import build_chain_dag, build_diamond_dag


@pytest.fixture
def machine():
    return BspMachine.uniform(2, g=1, latency=1)


class TestAssignmentChecks:
    def test_valid_same_processor_schedule(self, machine):
        dag = build_diamond_dag()
        violations = schedule_violations(
            dag, machine, np.zeros(4, int), np.array([0, 0, 0, 0]), []
        )
        assert violations == []

    def test_invalid_processor_index(self, machine):
        dag = build_chain_dag(2)
        violations = schedule_violations(
            dag, machine, np.array([0, 5]), np.array([0, 1]), []
        )
        assert any("invalid processor" in v for v in violations)

    def test_negative_superstep(self, machine):
        dag = build_chain_dag(2)
        violations = schedule_violations(
            dag, machine, np.array([0, 0]), np.array([0, -1]), []
        )
        assert any("negative superstep" in v for v in violations)

    def test_wrong_array_length(self, machine):
        dag = build_chain_dag(3)
        violations = schedule_violations(
            dag, machine, np.array([0, 0]), np.array([0, 0]), []
        )
        assert violations and "shape" in violations[0]


class TestPrecedence:
    def test_same_proc_wrong_order(self, machine):
        dag = build_chain_dag(2)
        violations = schedule_violations(
            dag, machine, np.array([0, 0]), np.array([1, 0]), []
        )
        assert any("scheduled later" in v for v in violations)

    def test_cross_proc_without_comm(self, machine):
        dag = build_chain_dag(2)
        violations = schedule_violations(
            dag, machine, np.array([0, 1]), np.array([0, 1]), []
        )
        assert any("never reaches" in v for v in violations)

    def test_cross_proc_with_comm_in_time(self, machine):
        dag = build_chain_dag(2)
        comm = [CommStep(0, 0, 1, 0)]
        violations = schedule_violations(
            dag, machine, np.array([0, 1]), np.array([0, 1]), comm
        )
        assert violations == []

    def test_cross_proc_comm_too_late(self, machine):
        dag = build_chain_dag(2)
        comm = [CommStep(0, 0, 1, 1)]
        violations = schedule_violations(
            dag, machine, np.array([0, 1]), np.array([0, 1]), comm
        )
        assert any("never reaches" in v for v in violations)

    def test_cross_proc_same_superstep_invalid(self, machine):
        dag = build_chain_dag(2)
        comm = [CommStep(0, 0, 1, 0)]
        violations = schedule_violations(
            dag, machine, np.array([0, 1]), np.array([0, 0]), comm
        )
        assert violations  # the value only arrives after superstep 0


class TestCommScheduleChecks:
    def test_comm_before_value_computed(self, machine):
        dag = build_chain_dag(2)
        # node 0 computed in superstep 1 but "sent" in phase 0
        comm = [CommStep(0, 0, 1, 0)]
        violations = schedule_violations(
            dag, machine, np.array([0, 1]), np.array([1, 2]), comm
        )
        assert any("not available" in v for v in violations)

    def test_comm_from_wrong_processor(self, machine):
        dag = build_chain_dag(2)
        comm = [CommStep(0, 1, 0, 0)]
        violations = schedule_violations(
            dag, machine, np.array([0, 0]), np.array([0, 1]), comm
        )
        assert any("not available" in v for v in violations)

    def test_forwarding_chain_is_accepted(self):
        machine = BspMachine.uniform(3, g=1, latency=1)
        dag = build_chain_dag(2)
        procs = np.array([0, 2])
        steps = np.array([0, 3])
        # value travels 0 -> 1 in phase 0, then 1 -> 2 in phase 1
        comm = [CommStep(0, 0, 1, 0), CommStep(0, 1, 2, 1)]
        violations = schedule_violations(dag, machine, procs, steps, comm)
        assert violations == []

    def test_forwarding_without_justification_rejected(self):
        machine = BspMachine.uniform(3, g=1, latency=1)
        dag = build_chain_dag(2)
        procs = np.array([0, 2])
        steps = np.array([0, 3])
        # forwarding from proc 1, but the value never reached proc 1
        comm = [CommStep(0, 1, 2, 1)]
        violations = schedule_violations(dag, machine, procs, steps, comm)
        assert violations

    def test_self_send_rejected(self, machine):
        dag = build_chain_dag(2)
        comm = [CommStep(0, 0, 0, 0)]
        violations = schedule_violations(
            dag, machine, np.array([0, 0]), np.array([0, 1]), comm
        )
        assert any("own processor" in v for v in violations)

    def test_invalid_comm_processor(self, machine):
        dag = build_chain_dag(2)
        comm = [CommStep(0, 0, 9, 0)]
        violations = schedule_violations(
            dag, machine, np.array([0, 0]), np.array([0, 1]), comm
        )
        assert any("invalid processor" in v for v in violations)


class TestValidateAndScheduleClass:
    def test_validate_raises(self, machine):
        dag = build_chain_dag(2)
        with pytest.raises(ScheduleError):
            validate_schedule(dag, machine, np.array([0, 1]), np.array([0, 1]), [])

    def test_schedule_constructor_validates(self, machine):
        dag = build_chain_dag(2)
        with pytest.raises(ScheduleError):
            BspSchedule(dag, machine, [0, 1], [0, 0])

    def test_schedule_constructor_can_skip_validation(self, machine):
        dag = build_chain_dag(2)
        schedule = BspSchedule(dag, machine, [0, 1], [0, 0], [], validate=False)
        assert not schedule.is_valid()
        assert schedule.violations()

    def test_lazy_schedule_with_a_cross_processor_tie_is_reported(self, machine):
        # no lazy Γ exists: node 0's value is needed on processor 1 in the
        # superstep that computes it
        dag = build_chain_dag(2)
        with pytest.raises(ScheduleError) as no_gamma:
            required_transfers(dag, [0, 1], [0, 0])
        schedule = BspSchedule(dag, machine, [0, 1], [0, 0], validate=False)
        assert not schedule.is_valid()
        assert schedule.violations() == [str(no_gamma.value)]
        with pytest.raises(ScheduleError, match="no valid communication phase exists"):
            schedule.validate()

    def test_max_violations_bound(self):
        machine = BspMachine.uniform(2)
        dag = ComputationalDAG.from_edge_arrays(60, range(0, 60, 2), range(1, 60, 2))
        procs = np.array([0, 1] * 30)
        steps = np.zeros(60, int)
        violations = schedule_violations(dag, machine, procs, steps, [], max_violations=5)
        assert len(violations) == 5
