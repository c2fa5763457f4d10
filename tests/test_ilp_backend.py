"""Unit tests for the MILP backend wrapper."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from repro.core import BspMachine, SolverError
from repro.dagdb import build_pagerank_coarse
from repro.schedulers import MilpProblem
from repro.schedulers.ilp import backend
from repro.schedulers.ilp.backend import (
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    OTHER,
    TIME_LIMIT,
)

from conftest import first_ilp_init_model


class TestModelBuilding:
    def test_variable_counting(self):
        problem = MilpProblem()
        x = problem.add_binary(objective=1.0)
        y = problem.add_continuous(0, 10, objective=2.0)
        assert (x, y) == (0, 1)
        assert problem.num_variables == 2
        assert problem.num_constraints == 0

    def test_constraint_validation(self):
        problem = MilpProblem()
        with pytest.raises(SolverError):
            problem.add_constraint({}, 0, 1)
        with pytest.raises(SolverError):
            problem.add_constraint({5: 1.0}, 0, 1)

    def test_empty_model_solves(self):
        solution = MilpProblem().solve()
        assert solution.objective == 0.0


class TestSolving:
    def test_simple_binary_knapsack(self):
        """max 3a + 2b + 2c subject to a + b + c <= 2 (as minimisation)."""
        problem = MilpProblem()
        a = problem.add_binary(objective=-3)
        b = problem.add_binary(objective=-2)
        c = problem.add_binary(objective=-2)
        problem.add_le({a: 1, b: 1, c: 1}, 2)
        solution = problem.solve()
        assert solution.feasible
        assert solution.objective == pytest.approx(-5)
        assert solution.is_one(a)
        assert solution.is_one(b) != solution.is_one(c)

    def test_equality_and_ge_constraints(self):
        problem = MilpProblem()
        x = problem.add_continuous(0, 10, objective=1.0)
        y = problem.add_continuous(0, 10, objective=1.0)
        problem.add_eq({x: 1, y: 1}, 6)
        problem.add_ge({x: 1}, 2)
        solution = problem.solve()
        assert solution.feasible
        assert solution.objective == pytest.approx(6)
        assert solution.value(x) >= 2 - 1e-6

    def test_mixed_integer_rounding(self):
        """Integrality forces the binary away from the LP optimum."""
        problem = MilpProblem()
        x = problem.add_binary(objective=1.0)
        y = problem.add_continuous(0, 1, objective=0.4)
        # x + y >= 1.5  -> with x binary the best is x=1, y=0.5
        problem.add_ge({x: 1, y: 1}, 1.5)
        solution = problem.solve()
        assert solution.feasible
        assert solution.is_one(x)
        assert solution.value(y) == pytest.approx(0.5)

    def test_infeasible_model_reports_not_feasible(self):
        problem = MilpProblem()
        x = problem.add_binary()
        problem.add_ge({x: 1}, 2)
        solution = problem.solve()
        assert not solution.feasible

    def test_time_limit_does_not_crash(self):
        problem = MilpProblem()
        variables = [problem.add_binary(objective=-(i % 7 + 1)) for i in range(60)]
        problem.add_le({v: 1 for v in variables}, 10)
        solution = problem.solve(time_limit=0.2)
        # with such a tiny model HiGHS still finds the optimum, but the call
        # must honour the option without blowing up
        assert solution.feasible



def _fake_milp(status, message):
    def milp(**_kwargs):
        return OptimizeResult(x=None, fun=None, status=status, message=message)

    return milp


class TestStopReason:
    def test_optimal(self):
        problem = MilpProblem()
        x = problem.add_binary(objective=-1.0)
        problem.add_le({x: 1}, 1)
        assert problem.solve().stop == OPTIMAL
        assert MilpProblem().solve().stop == OPTIMAL  # the empty model

    def test_infeasible(self):
        problem = MilpProblem()
        x = problem.add_binary()
        problem.add_ge({x: 1}, 2)
        solution = problem.solve()
        assert solution.status == 2
        assert solution.stop == INFEASIBLE

    def test_node_limit_is_scipy_status_4(self):
        """pagerank(8)'s first ILPinit batch stops at node limit 1 (P=4, g=3, l=5)."""
        machine = BspMachine.uniform(4, g=3, latency=5)
        problem = first_ilp_init_model(build_pagerank_coarse(8), machine)
        solution = problem.solve(node_limit=1)
        assert solution.status == 4
        assert solution.stop == NODE_LIMIT
        assert solution.feasible

    def test_time_limit(self, monkeypatch):
        monkeypatch.setattr(
            backend,
            "milp",
            _fake_milp(1, "Time limit reached. (HiGHS Status 13: Time limit reached)"),
        )
        problem = MilpProblem()
        problem.add_binary()
        assert problem.solve(time_limit=0.1).stop == TIME_LIMIT

    def test_other(self, monkeypatch):
        problem = MilpProblem()
        problem.add_continuous(-np.inf, np.inf, objective=-1.0)
        solution = problem.solve()
        assert solution.status == 3  # unbounded
        assert solution.stop == OTHER
        # status 2 and status 4 count only with their HiGHS model status
        for status, model_status in ((2, 2), (4, 9), (4, 13)):
            monkeypatch.setattr(
                backend,
                "milp",
                _fake_milp(status, f"... (HiGHS Status {model_status}: something)"),
            )
            assert problem.solve().stop == OTHER


class TestModelKey:
    @staticmethod
    def _build():
        machine = BspMachine.uniform(4, g=3, latency=5)
        return first_ilp_init_model(build_pagerank_coarse(8), machine)

    def test_two_builds_of_one_window_share_a_key(self):
        first, second = self._build(), self._build()
        assert first is not second
        assert first.key(1) == second.key(1)
        second.name = "renamed"  # the name never reaches HiGHS
        assert first.key(1) == second.key(1)

    @pytest.mark.parametrize(
        "field",
        ["_objective", "_lower", "_upper", "_integrality", "_vals", "_row_lower", "_row_upper"],
    )
    def test_any_model_change_changes_the_key(self, field):
        reference = self._build().key(1)
        problem = self._build()
        values = getattr(problem, field)
        # the first entry of every field is finite: a binary comp variable
        # and its exactly-once row
        values[0] = 1 - values[0] if field == "_integrality" else values[0] + 0.5
        assert problem.key(1) != reference

    def test_work_limits_change_the_key(self):
        problem = self._build()
        assert problem.key(1) != problem.key(2)
        assert problem.key(1) != problem.key(None)
        assert problem.key(1) != problem.key(1, mip_rel_gap=0.01)
