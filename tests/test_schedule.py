"""Unit tests for the BspSchedule container."""

from __future__ import annotations

import pytest

import repro.core.comm as core_comm
import repro.core.schedule as core_schedule
import repro.core.validation as core_validation
from repro.api import ScheduleRequest, SchedulerSpec, SchedulingService
from repro.core import BspMachine, BspSchedule, CommStep, ScheduleError

from conftest import build_diamond_dag, random_dag


@pytest.fixture
def machine():
    return BspMachine.uniform(2, g=2, latency=3)


@pytest.fixture
def simple_schedule(machine):
    dag = build_diamond_dag()
    return BspSchedule(dag, machine, [0, 0, 1, 0], [0, 1, 1, 2])


class TestAccessors:
    def test_basic_accessors(self, simple_schedule):
        assert simple_schedule.proc_of(2) == 1
        assert simple_schedule.superstep_of(3) == 2
        assert simple_schedule.num_supersteps == 3
        assert list(simple_schedule.procs) == [0, 0, 1, 0]
        assert list(simple_schedule.supersteps) == [0, 1, 1, 2]

    def test_assignment_views_read_only(self, simple_schedule):
        with pytest.raises(ValueError):
            simple_schedule.procs[0] = 1

    def test_nodes_in_superstep(self, simple_schedule):
        assert simple_schedule.nodes_in_superstep(1) == [1, 2]
        assert simple_schedule.nodes_in_superstep(1, p=1) == [2]
        assert simple_schedule.nodes_in_superstep(0) == [0]

    def test_wrong_length_rejected(self, machine):
        dag = build_diamond_dag()
        with pytest.raises(ScheduleError):
            BspSchedule(dag, machine, [0, 0], [0, 0])

    def test_from_mappings(self, machine):
        dag = build_diamond_dag()
        schedule = BspSchedule.from_mappings(
            dag, machine, {0: 0, 1: 0, 2: 1, 3: 0}, {0: 0, 1: 1, 2: 1, 3: 2}
        )
        assert schedule.proc_of(2) == 1
        assert schedule.is_valid()

    def test_trivial_schedule(self, machine):
        dag = build_diamond_dag()
        trivial = BspSchedule.trivial(dag, machine)
        assert trivial.num_supersteps == 1
        assert set(trivial.procs) == {0}
        assert trivial.is_valid()


class TestCommSchedules:
    def test_lazy_comm_derived(self, simple_schedule):
        assert simple_schedule.uses_lazy_comm
        comm = simple_schedule.comm_schedule
        # node 0 must reach proc 1 before superstep 1; node 2 must reach proc 0 before superstep 2
        nodes_sent = {step.node for step in comm}
        assert nodes_sent == {0, 2}

    def test_with_comm_schedule(self, simple_schedule):
        explicit = frozenset([CommStep(0, 0, 1, 0), CommStep(2, 1, 0, 1)])
        schedule = simple_schedule.with_comm_schedule(explicit)
        assert not schedule.uses_lazy_comm
        assert schedule.comm_schedule == explicit
        assert schedule.is_valid()

    def test_with_lazy_comm_roundtrip(self, simple_schedule):
        explicit = simple_schedule.with_comm_schedule(simple_schedule.comm_schedule)
        back = explicit.with_lazy_comm()
        assert back.uses_lazy_comm
        assert back.cost() == simple_schedule.cost()

    def test_comm_windows(self, simple_schedule):
        windows = simple_schedule.comm_windows()
        assert {w.node for w in windows} == {0, 2}


class TestCostAndCompaction:
    def test_cost_caching_consistency(self, simple_schedule):
        assert simple_schedule.cost() == simple_schedule.cost_breakdown().total
        assert simple_schedule.cost() == simple_schedule.cost()

    def test_copy_independent(self, simple_schedule):
        clone = simple_schedule.copy()
        assert clone.cost() == simple_schedule.cost()
        assert clone is not simple_schedule

    def test_compacted_removes_empty_supersteps(self, machine):
        dag = build_diamond_dag()
        sparse = BspSchedule(dag, machine, [0, 0, 0, 0], [0, 4, 4, 8])
        compacted = sparse.compacted()
        assert compacted.num_supersteps == 3
        assert compacted.cost() < sparse.cost()
        assert compacted.is_valid()

    def test_compacted_preserves_cost_when_dense(self, simple_schedule):
        compacted = simple_schedule.compacted()
        assert compacted.cost() == simple_schedule.cost()

    def test_compacted_with_explicit_comm(self, machine):
        dag = build_diamond_dag()
        schedule = BspSchedule(
            dag,
            machine,
            [0, 0, 1, 0],
            [0, 2, 2, 4],
            [CommStep(0, 0, 1, 0), CommStep(2, 1, 0, 2)],
        )
        compacted = schedule.compacted()
        assert compacted.is_valid()
        assert compacted.num_supersteps <= schedule.num_supersteps

    def test_with_assignment(self, simple_schedule):
        moved = simple_schedule.with_assignment([0, 0, 0, 0], [0, 0, 0, 0])
        assert moved.num_supersteps == 1
        assert moved.is_valid()


class TestLazyPathBuildsNoGamma:
    """A lazy schedule is validated, costed and compacted without its ``Γ``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Make building the lazy ``Γ`` fail, and count the checks and costings."""

        def no_gamma(*args, **kwargs):
            raise AssertionError("the lazy Γ was built")

        monkeypatch.setattr(core_comm, "lazy_comm_schedule", no_gamma)
        monkeypatch.setattr(core_schedule, "lazy_comm_schedule", no_gamma)
        counts = {"schedule_violations": 0, "evaluate_cost": 0}
        for module, name in (
            (core_validation, "schedule_violations"),
            (core_schedule, "evaluate_cost"),
        ):

            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    def test_validate_cost_and_compacted(self, calls, machine):
        dag = build_diamond_dag()
        # lazy phases 3 and 7: supersteps 1, 2, 5 and 6 are empty
        sparse = BspSchedule(dag, machine, [0, 0, 1, 0], [0, 4, 4, 8], validate=False)
        sparse.validate()
        assert calls == {"schedule_violations": 1, "evaluate_cost": 0}
        cost = sparse.cost()
        assert sparse.cost() == cost
        assert calls == {"schedule_violations": 1, "evaluate_cost": 1}
        compacted = sparse.compacted()  # validated on construction
        assert calls == {"schedule_violations": 2, "evaluate_cost": 1}
        assert compacted.supersteps.tolist() == [0, 2, 2, 4]
        assert compacted.cost() == cost - 4 * machine.latency
        assert calls == {"schedule_violations": 2, "evaluate_cost": 2}

    @pytest.mark.parametrize("name", ["cilk", "etf", "hdagg", "bsp_greedy", "source"])
    def test_baseline_solves(self, calls, name):
        dag = random_dag(30, 0.15, seed=3)
        machine = BspMachine.uniform(4, g=2, latency=3)
        request = ScheduleRequest(dag, machine, SchedulerSpec(name))
        result = SchedulingService(cache_size=0).solve(request)
        schedule = result.to_schedule()
        assert schedule.uses_lazy_comm and len(set(schedule.procs.tolist())) > 1
        assert "comm_schedule" not in result.schedule_dict()
        assert calls["schedule_violations"] >= 1 and calls["evaluate_cost"] >= 1
        assert result.cost == schedule.cost()


class TestReporting:
    def test_describe_contains_costs(self, simple_schedule):
        text = simple_schedule.describe()
        assert "total cost" in text
        assert "superstep 0" in text

    def test_repr(self, simple_schedule):
        assert "BspSchedule" in repr(simple_schedule)
