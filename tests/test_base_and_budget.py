"""Unit tests for the scheduler base classes and the Budget model."""

from __future__ import annotations

import time

import pytest

from repro.core import BspMachine
from repro.schedulers import (
    Budget,
    Scheduler,
    ScheduleImprover,
    best_schedule,
)
from repro.schedulers.trivial import TrivialScheduler


class TestBudgetClock:
    def test_unlimited_never_expires(self):
        budget = Budget()
        assert not budget.expired()
        assert budget.remaining == float("inf")

    def test_zero_budget_expires_immediately(self):
        budget = Budget(0.0)
        assert budget.expired()
        assert budget.remaining == 0.0

    def test_elapsed_grows(self):
        budget = Budget(10.0)
        first = budget.elapsed
        time.sleep(0.01)
        assert budget.elapsed > first
        assert budget.remaining < 10.0
        assert not budget.expired()

    def test_fraction(self):
        budget = Budget(10.0)
        half = budget.fraction(0.5)
        assert half.seconds == pytest.approx(5.0)
        assert Budget().fraction(0.5).seconds is None


class TestUnifiedBudget:
    def test_wall_clock_with_work_caps_expires(self):
        budget = Budget(seconds=0.05, max_steps=4, ilp_node_limit=10)
        time.sleep(0.06)
        assert budget.expired()

    def test_work_caps_alone_never_expire(self):
        budget = Budget(seconds=None, max_steps=2)
        assert not budget.expired()
        assert budget.remaining == float("inf")

    @pytest.mark.parametrize("seconds", [None, 8.0])
    def test_fraction_keeps_work_caps(self, seconds):
        part = Budget(seconds, max_steps=3, ilp_node_limit=7).fraction(0.25)
        assert (part.max_steps, part.ilp_node_limit) == (3, 7)
        assert part.seconds == (None if seconds is None else 2.0)

    def test_fraction_restarts_clock(self):
        budget = Budget(seconds=0.05, max_steps=1)
        time.sleep(0.06)
        assert budget.expired()
        assert not budget.fraction(1.0).expired()

    def test_ilp_limits(self):
        # no seconds: the stage's own clock; no node limit: the stage's own
        assert Budget().ilp_limits(10.0, 5) == (10.0, 5)
        assert Budget(ilp_node_limit=1).ilp_limits(10.0, 5) == (10.0, 1)
        assert Budget(ilp_node_limit=1).ilp_limits(None, None) == (None, 1)
        # with seconds: never past the remaining allowance
        time_limit, _ = Budget(seconds=100.0).ilp_limits(10.0, None)
        assert time_limit == 10.0
        time_limit, _ = Budget(seconds=2.0).ilp_limits(10.0, None)
        assert 0.0 < time_limit <= 2.0
        time_limit, _ = Budget(seconds=2.0).ilp_limits(None, None)
        assert 0.0 < time_limit <= 2.0

    def test_ilp_limits_zero_second_stage_clock(self):
        # 0.0 is a stage clock of its own, not "no clock": with or without
        # an outer allowance the solve gets 0 s, never the whole outer clock
        assert Budget().ilp_limits(0.0, None) == (0.0, None)
        assert Budget(seconds=60.0).ilp_limits(0.0, None) == (0.0, None)

    def test_started_restarts_clock(self):
        budget = Budget(seconds=0.05, max_steps=1)
        time.sleep(0.06)
        assert budget.expired()
        fresh = budget.started()
        assert not fresh.expired()
        assert (fresh.seconds, fresh.max_steps) == (0.05, 1)


class TestBaseClasses:
    def test_scheduler_is_abstract(self):
        with pytest.raises(TypeError):
            Scheduler()  # type: ignore[abstract]
        with pytest.raises(TypeError):
            ScheduleImprover()  # type: ignore[abstract]

    def test_repr_contains_name(self):
        assert "trivial" in repr(TrivialScheduler())

    def test_best_schedule_ignores_none(self, random_dag_factory):
        dag = random_dag_factory(10, 0.2, seed=0)
        machine = BspMachine.uniform(2, latency=1)
        schedule = TrivialScheduler().schedule(dag, machine)
        assert best_schedule(None, schedule, None) is schedule

    def test_best_schedule_empty_raises(self):
        with pytest.raises(ValueError):
            best_schedule()
