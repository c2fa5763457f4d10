"""Unit tests for the ILP-based scheduling methods (window model, full, partial, cs, init)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, BspSchedule, ComputationalDAG, SolverError
from repro.schedulers import (
    BspGreedyScheduler,
    IlpCommScheduleImprover,
    IlpFullImprover,
    IlpInitScheduler,
    IlpPartialImprover,
    WindowIlp,
    estimate_window_variables,
)
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import assert_valid_schedule, build_chain_dag, build_diamond_dag
from repro.dagdb import SparseMatrixPattern, build_spmv_dag

TIME_LIMIT = 10.0
#: branch-and-bound cap for the tests that would otherwise run HiGHS to the
#: wall clock on ``small_instance``: deterministic and a few seconds each
NODE_LIMIT = 200


@pytest.fixture
def small_instance():
    pattern = SparseMatrixPattern.random(5, 0.4, seed=2, ensure_diagonal=True)
    dag = build_spmv_dag(pattern).dag
    machine = BspMachine.uniform(2, g=2, latency=3)
    return dag, machine


class TestWindowIlp:
    def test_estimate(self):
        assert estimate_window_variables(10, 3, 4) == 480

    def test_finds_optimal_for_tiny_chain(self):
        """For a 2-node chain on 2 procs the optimum keeps both on one processor."""
        dag = build_chain_dag(2, work=1.0, comm=5.0)
        machine = BspMachine.uniform(2, g=3, latency=2)
        start = BspSchedule(dag, machine, [0, 1], [0, 1])
        ilp = WindowIlp(
            dag, machine, start.procs, start.supersteps,
            reassign=[0, 1], window=(0, 1), context_comm=start.comm_schedule,
        )
        result = ilp.solve(time_limit=TIME_LIMIT)
        assert result.feasible
        assert result.procs[0] == result.procs[1]

    def test_window_validation_rejects_bad_context(self):
        dag = build_chain_dag(3)
        machine = BspMachine.uniform(2)
        procs = np.array([0, 0, 0])
        steps = np.array([0, 1, 2])
        # reassigning only the middle node with its successor inside the window
        with pytest.raises(SolverError):
            WindowIlp(dag, machine, procs, steps, reassign=[1], window=(1, 2))

    def test_invalid_window_rejected(self):
        dag = build_chain_dag(2)
        machine = BspMachine.uniform(2)
        with pytest.raises(SolverError):
            WindowIlp(dag, machine, [0, 0], [0, 0], reassign=[0], window=(2, 1))

    def test_partial_window_respects_fixed_successors(self):
        """Nodes after the window keep receiving the values they need."""
        dag = build_chain_dag(4, comm=2.0)
        machine = BspMachine.uniform(2, g=1, latency=1)
        start = BspSchedule(dag, machine, [0, 0, 1, 1], [0, 1, 2, 3])
        ilp = WindowIlp(
            dag, machine, start.procs, start.supersteps,
            reassign=[0, 1], window=(0, 1), context_comm=start.comm_schedule,
        )
        result = ilp.solve(time_limit=TIME_LIMIT)
        assert result.feasible
        procs = start.procs.copy()
        steps = start.supersteps.copy()
        for v, p in result.procs.items():
            procs[v] = p
        for v, s in result.supersteps.items():
            steps[v] = s
        rebuilt = BspSchedule(dag, machine, procs, steps)
        assert_valid_schedule(rebuilt)


class TestIlpFull:
    def test_applicability_threshold(self, small_instance):
        dag, machine = small_instance
        start = BspGreedyScheduler().schedule(dag, machine)
        assert IlpFullImprover(max_variables=10**6).applicable(start)
        assert not IlpFullImprover(max_variables=10).applicable(start)

    @pytest.mark.slow
    def test_improves_or_keeps_cost(self, small_instance):
        dag, machine = small_instance
        start = RoundRobinScheduler().schedule(dag, machine)
        improved = IlpFullImprover(time_limit=None, node_limit=NODE_LIMIT).improve(start)
        assert improved.cost() <= start.cost()
        assert_valid_schedule(improved)

    def test_skips_oversized_instances(self, small_instance):
        dag, machine = small_instance
        start = BspGreedyScheduler().schedule(dag, machine)
        untouched = IlpFullImprover(max_variables=10).improve(start)
        assert untouched is start

    def test_finds_known_optimum_on_independent_tasks(self):
        """Two independent heavy tasks on two processors: optimum splits them."""
        dag = ComputationalDAG(2, [10, 10], [1, 1])
        machine = BspMachine.uniform(2, g=1, latency=1)
        start = BspSchedule.trivial(dag, machine)  # cost 21
        improved = IlpFullImprover(time_limit=TIME_LIMIT).improve(start)
        assert improved.cost() == pytest.approx(11.0)


class TestIlpPartial:
    @pytest.mark.slow
    def test_never_worse_and_valid(self, small_instance):
        dag, machine = small_instance
        start = RoundRobinScheduler().schedule(dag, machine)
        improved = IlpPartialImprover(
            time_limit_per_window=None, node_limit=NODE_LIMIT
        ).improve(start)
        assert improved.cost() <= start.cost()
        assert_valid_schedule(improved)

    def test_interval_construction_respects_threshold(self, small_instance):
        dag, machine = small_instance
        start = BspGreedyScheduler().schedule(dag, machine)
        improver = IlpPartialImprover(max_variables=100)
        intervals = improver._intervals(start)
        # intervals cover every superstep exactly once, back to front
        covered = sorted(s for low, high in intervals for s in range(low, high + 1))
        assert covered == list(range(start.num_supersteps))

    def test_empty_schedule_is_noop(self):
        dag = ComputationalDAG(0)
        machine = BspMachine.uniform(2)
        start = BspSchedule(dag, machine, [], [])
        assert IlpPartialImprover().improve(start) is start


class TestIlpCommSchedule:
    def test_never_worse_and_assignment_fixed(self, small_instance):
        dag, machine = small_instance
        start = RoundRobinScheduler().schedule(dag, machine)
        improved = IlpCommScheduleImprover(time_limit=TIME_LIMIT).improve(start)
        assert improved.cost() <= start.cost()
        assert np.array_equal(improved.procs, start.procs)
        assert np.array_equal(improved.supersteps, start.supersteps)
        assert_valid_schedule(improved)

    def test_matches_or_beats_hill_climbing_variant(self, small_instance):
        from repro.schedulers import CommScheduleHillClimbing

        dag, machine = small_instance
        start = RoundRobinScheduler().schedule(dag, machine)
        hc = CommScheduleHillClimbing().improve(start)
        ilp = IlpCommScheduleImprover(time_limit=TIME_LIMIT).improve(start)
        assert ilp.cost() <= hc.cost() + 1e-9

    def test_no_transfers_is_noop(self):
        dag = build_diamond_dag()
        machine = BspMachine.uniform(2)
        trivial = BspSchedule.trivial(dag, machine)
        assert IlpCommScheduleImprover().improve(trivial) is trivial

    def test_transfer_bound_skips_large_instances(self, small_instance):
        dag, machine = small_instance
        start = RoundRobinScheduler().schedule(dag, machine)
        assert IlpCommScheduleImprover(max_transfers=1).improve(start) is start


class TestIlpInit:
    @pytest.mark.slow
    def test_produces_valid_schedule(self, small_instance):
        dag, machine = small_instance
        schedule = IlpInitScheduler(
            time_limit_per_batch=None, node_limit=NODE_LIMIT
        ).schedule(dag, machine)
        assert_valid_schedule(schedule)
        assert schedule.dag is dag

    def test_batches_cover_all_nodes_in_topological_order(self, small_instance):
        dag, machine = small_instance
        scheduler = IlpInitScheduler(max_variables=200)
        batches = scheduler._batches(dag, machine.num_procs)
        flattened = [v for batch in batches for v in batch]
        assert sorted(flattened) == list(dag.nodes())
        position = {v: i for i, v in enumerate(flattened)}
        for edge in dag.edges():
            assert position[edge.source] < position[edge.target]

    def test_fallback_when_solver_unavailable(self, small_instance, monkeypatch):
        """If every batch ILP fails, the serial fallback still yields a valid schedule."""
        from repro.schedulers.ilp import init as init_module

        dag, machine = small_instance

        class _FailingIlp:
            def __init__(self, *args, **kwargs):
                pass

            def solve(self, time_limit=None, node_limit=None):
                from repro.schedulers.ilp.window import WindowIlpResult

                return WindowIlpResult(False, {}, {}, float("inf"), "forced failure")

        monkeypatch.setattr(init_module, "WindowIlp", _FailingIlp)
        schedule = IlpInitScheduler().schedule(dag, machine)
        assert_valid_schedule(schedule)

    def test_empty_dag(self):
        machine = BspMachine.uniform(2)
        schedule = IlpInitScheduler().schedule(ComputationalDAG(0), machine)
        assert schedule.cost() == 0.0

    @pytest.mark.slow
    def test_better_than_random_on_small_instance(self, small_instance):
        dag, machine = small_instance
        ilp_init = IlpInitScheduler(
            time_limit_per_batch=None, node_limit=NODE_LIMIT
        ).schedule(dag, machine)
        random_like = RoundRobinScheduler().schedule(dag, machine)
        assert ilp_init.cost() <= random_like.cost()


class TestWindowModelDifferential:
    """The batched WindowIlp construction emits the seed dict builder's model."""

    def test_batched_model_identical_to_reference(self):
        from scipy import sparse

        from repro.schedulers.ilp.reference import build_window_model_reference
        from repro.schedulers.ilp.window import WindowIlp
        from repro.schedulers.trivial import RoundRobinScheduler

        import numpy as np

        from conftest import random_dag

        checked = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            dag = random_dag(int(rng.integers(8, 20)), 0.25, seed=seed)
            machine = BspMachine.uniform(int(rng.integers(2, 5)), g=2, latency=1)
            schedule = RoundRobinScheduler().schedule(dag, machine)
            num_steps = schedule.num_supersteps
            low = int(rng.integers(0, num_steps))
            high = min(num_steps - 1, low + int(rng.integers(0, 3)))
            reassign = [
                v for v in dag.nodes() if low <= schedule.superstep_of(v) <= high
            ]
            if not reassign:
                continue
            ilp = WindowIlp(
                dag,
                machine,
                schedule.procs,
                schedule.supersteps,
                reassign=reassign,
                window=(low, high),
                context_comm=schedule.comm_schedule,
            )
            batched, _ = ilp.build_model()
            reference = build_window_model_reference(ilp)
            assert batched.num_variables == reference.num_variables
            assert batched._objective == reference._objective
            assert batched._lower == reference._lower
            assert batched._upper == reference._upper
            assert batched._integrality == reference._integrality
            assert batched.num_constraints == reference.num_constraints
            assert batched._row_lower == reference._row_lower
            assert batched._row_upper == reference._row_upper
            matrix_b = sparse.csr_matrix(
                (batched._vals, (batched._rows, batched._cols)),
                shape=(batched.num_constraints, batched.num_variables),
            )
            matrix_r = sparse.csr_matrix(
                (reference._vals, (reference._rows, reference._cols)),
                shape=(reference.num_constraints, reference.num_variables),
            )
            assert abs(matrix_b - matrix_r).sum() == 0
            checked += 1
        assert checked >= 4  # enough non-degenerate windows exercised
