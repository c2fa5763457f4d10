"""Unit tests for the HC local search and its incremental cost tracker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, BspSchedule, ComputationalDAG
from repro.core.csr import group_min_by_pair
from repro.schedulers import (
    BspGreedyScheduler,
    Budget,
    CilkScheduler,
    HillClimbingImprover,
    LazyCostTracker,
    PipelineConfig,
    SchedulingPipeline,
    SourceScheduler,
    hill_climbing,
)
from repro.schedulers.hill_climbing import CLOCK, CONVERGED, PASS_CAP, STEP_CAP
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import (
    assert_valid_schedule,
    build_diamond_dag,
    build_fork_join_dag,
    dag_from_edges,
    oracle_dag,
    oracle_machine,
    random_dag,
)


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

    @pytest.mark.parametrize(
        "machine",
        [
            BspMachine.uniform(3, g=2, latency=1),
            BspMachine.numa_hierarchy(4, delta=3, g=2, latency=1),
        ],
        ids=["uniform", "numa"],
    )
    def test_state_after_every_move_equals_a_fresh_build(self, machine):
        """Work, traffic, their row maxima and the first-need tables, bit for bit.

        Integer weights keep every traffic sum exact, so a maintained
        tracker must hold the very bytes of one built from its ``(π, τ)``.
        Some moves leave a predecessor with no successor on the moved
        node's old processor, so its first-need column is rescanned empty.
        """
        names = ("work", "traffic", "_work_max", "_comm_max", "need_min", "need_cnt")
        rng = np.random.default_rng(7)
        moves = emptied = 0
        for seed in range(3):
            dag = random_dag(24, 0.15, seed=60 + seed)
            schedule = RoundRobinScheduler().schedule(dag, machine)
            tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
            for _ in range(300):
                v = int(rng.integers(dag.num_nodes))
                old_proc, old_step = int(tracker.procs[v]), int(tracker.supersteps[v])
                new_proc = int(rng.integers(machine.num_procs))
                new_step = old_step + int(rng.integers(-1, 2))
                if (new_proc, new_step) == (old_proc, old_step) or not tracker.is_valid_move(
                    v, new_proc, new_step
                ):
                    continue
                emptied += new_proc != old_proc and any(
                    np.count_nonzero(tracker.procs[dag.succ(u)] == old_proc) == 1
                    for u in dag.pred(v).tolist()
                )
                tracker.apply_move(v, new_proc, new_step)
                moves += 1
                fresh = LazyCostTracker(
                    dag, machine, tracker.procs, tracker.supersteps, tracker.num_supersteps
                )
                for name in names:
                    kept, built = getattr(tracker, name), getattr(fresh, name)
                    assert kept.dtype == built.dtype and kept.shape == built.shape, name
                    assert kept.tobytes() == built.tobytes(), (name, moves)
        assert moves >= 100
        assert emptied > 0

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
        dag = dag_from_edges(10, [(i, i + 1) for i in range(9)])
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


# ---------------------------------------------------------------------- #
# several schedules in one tracker
# ---------------------------------------------------------------------- #
def _edge_side_traffic(dag, machine, procs, supersteps, num_supersteps):
    """The traffic rows derived from the edges: the first need of every cross pair.

    Each (u, q) pair with a successor of u on q ≠ π(u) sends c(u)·λ(π(u), q)
    in the phase before that need, scattered in (u, q) order.
    """
    P = machine.num_procs
    traffic = np.zeros((2 * P, max(num_supersteps, 1)))
    src, dst = dag.edge_arrays()
    cross = procs[src] != procs[dst]
    if cross.any():
        u, q, need = group_min_by_pair(src[cross], procs[dst[cross]], supersteps[dst[cross]])
        sender = procs[u]
        volumes = dag.comm_weights[u] * machine.numa[sender, q]
        np.add.at(traffic[:P].T, (need - 1, sender), volumes)
        np.add.at(traffic[P:].T, (need - 1, q), volumes)
    return traffic


def _starts(dag, machine, copies, seed=0):
    """Up to three initial schedules of different shapes: BSPg, Source, seeded Cilk."""
    initializers = (BspGreedyScheduler(), SourceScheduler(), CilkScheduler(seed=seed))
    return [init.schedule(dag, machine).with_lazy_comm() for init in initializers[:copies]]


def _machine(kind, num_procs, rng):
    return oracle_machine(rng, num_procs, g=float(rng.integers(1, 5)), numa=kind == "numa")


class TestTrackerCopies:
    @pytest.mark.parametrize("kind", ["uniform", "numa"])
    @pytest.mark.parametrize("weights", ["integer", "zero", "decimal", "real", "no_comm"])
    def test_traffic_equals_the_edge_side_derivation(self, kind, weights):
        """A fresh tracker's traffic rows hold the edge-side bytes, copy by copy."""
        rng = np.random.default_rng(11)
        for _ in range(6):
            dag = oracle_dag(rng, "zero" if weights == "no_comm" else weights)
            if weights == "no_comm":
                dag = dag.with_weights(dag.work_weights, np.zeros(dag.num_nodes))
            machine = _machine(kind, int(rng.choice([2, 3, 4, 8])), rng)
            starts = _starts(dag, machine, 3, seed=int(rng.integers(100)))
            for copies in (starts[:1], starts):
                tracker = LazyCostTracker(
                    dag,
                    machine,
                    [s.procs for s in copies],
                    [s.supersteps for s in copies],
                    [s.num_supersteps for s in copies],
                )
                for t, s in enumerate(copies):
                    rows = slice(tracker.step_offsets[t], tracker.step_offsets[t + 1])
                    oracle = _edge_side_traffic(
                        dag, machine, s.procs, s.supersteps, s.num_supersteps
                    )
                    assert tracker.traffic[:, rows].tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "numa"])
    @pytest.mark.parametrize("num_procs", [1, 3, 8, 16])
    def test_mixed_blocks_score_as_each_copy_alone(self, kind, num_procs):
        """Blocks mixing copies give each copy's own valid mask and valid deltas.

        Every block holds nodes on each copy's first and last superstep,
        whose ``τ - 1`` and ``τ + 1`` candidates reach into the neighbouring
        copies' rows.
        """
        rng = np.random.default_rng(num_procs)
        edge_steps = 0
        for seed in range(4):
            dag = random_dag(int(rng.integers(8, 30)), 0.15, seed=80 + seed)
            n = dag.num_nodes
            machine = _machine(kind, num_procs, rng)
            starts = _starts(dag, machine, 3, seed=seed)
            joint = LazyCostTracker(
                dag,
                machine,
                [s.procs for s in starts],
                [s.supersteps for s in starts],
                [s.num_supersteps for s in starts],
            )
            alone = [
                LazyCostTracker(dag, machine, s.procs, s.supersteps, s.num_supersteps)
                for s in starts
            ]
            for _ in range(4):
                picks = []
                for t, s in enumerate(starts):
                    last = s.num_supersteps - 1
                    ends = np.flatnonzero((s.supersteps == 0) | (s.supersteps == last))
                    edge_steps += ends.size
                    extra = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
                    picks.append(np.concatenate((ends, extra)) + t * n)
                block = rng.permutation(np.concatenate(picks))
                deltas, valid = joint.candidate_deltas(block)
                block = block[: deltas.shape[0]]
                for t, solo in enumerate(alone):
                    mine = (block // n) == t
                    if not mine.any():
                        continue
                    solo_deltas, solo_valid = solo.candidate_deltas(block[mine] - t * n)
                    assert solo_deltas.shape[0] == np.count_nonzero(mine)
                    assert valid[mine].tobytes() == solo_valid.tobytes()
                    assert deltas[mine][solo_valid].tobytes() == solo_deltas[solo_valid].tobytes()
        assert edge_steps > 0

    def test_moves_stay_inside_their_copy(self):
        """A copy's nodes may not move into another copy's supersteps."""
        dag = random_dag(12, 0.2, seed=4)
        machine = BspMachine.uniform(2, g=1, latency=1)
        starts = _starts(dag, machine, 2)
        joint = LazyCostTracker(
            dag, machine, [s.procs for s in starts], [s.supersteps for s in starts]
        )
        split = int(joint.step_offsets[1])
        first = np.flatnonzero(joint.supersteps[: dag.num_nodes] == split - 1)
        second = dag.num_nodes + np.flatnonzero(joint.supersteps[dag.num_nodes :] == split)
        assert first.size and second.size
        for v in first.tolist():
            assert not any(joint.is_valid_move(v, q, split) for q in range(2))
        for v in second.tolist():
            assert not any(joint.is_valid_move(v, q, split - 1) for q in range(2))


class TestCopiesOfDifferentDags:
    """A tracker over copies of different DAGs scores each copy as a tracker of it alone."""

    @pytest.mark.parametrize("kind", ["uniform", "numa"])
    @pytest.mark.parametrize("num_procs", [1, 3, 8])
    def test_blocks_of_different_dags_score_as_each_copy_alone(self, kind, num_procs):
        """Copies of different DAGs, one of them a single node, score as alone.

        The copies have different superstep counts, and every block holds
        each copy's nodes on its first and last superstep, whose ``τ - 1``
        and ``τ + 1`` candidates reach into the neighbouring copies' rows:
        no valid candidate may leave its copy.
        """
        rng = np.random.default_rng(40 + num_procs)
        counts = set()
        for seed in range(4):
            machine = _machine(kind, num_procs, rng)
            dags = [
                random_dag(int(rng.integers(8, 30)), 0.15, seed=90 + 2 * seed + t) for t in (0, 1)
            ]
            dags.insert(int(rng.integers(0, 3)), random_dag(1, 0.0, seed=seed))
            initializers = (BspGreedyScheduler(), CilkScheduler(seed=seed), SourceScheduler())
            starts = [
                init.schedule(d, machine).with_lazy_comm() for init, d in zip(initializers, dags)
            ]
            counts.add(tuple(s.num_supersteps for s in starts))
            joint = LazyCostTracker(
                dags,
                machine,
                [s.procs for s in starts],
                [s.supersteps for s in starts],
                [s.num_supersteps for s in starts],
            )
            alone = [
                LazyCostTracker(d, machine, s.procs, s.supersteps, s.num_supersteps)
                for d, s in zip(dags, starts)
            ]
            offsets = joint.node_offsets
            for _ in range(4):
                picks = []
                for t, s in enumerate(starts):
                    n = dags[t].num_nodes
                    last = s.num_supersteps - 1
                    ends = np.flatnonzero((s.supersteps == 0) | (s.supersteps == last))
                    extra = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
                    picks.append(np.concatenate((ends, extra)) + offsets[t])
                block = rng.permutation(np.concatenate(picks))
                deltas, valid = joint.candidate_deltas(block)
                block = block[: deltas.shape[0]]
                owner = np.searchsorted(offsets, block, side="right") - 1
                for t, solo in enumerate(alone):
                    mine = owner == t
                    if not mine.any():
                        continue
                    solo_deltas, solo_valid = solo.candidate_deltas(block[mine] - offsets[t])
                    assert valid[mine].tobytes() == solo_valid.tobytes()
                    assert deltas[mine][solo_valid].tobytes() == solo_deltas[solo_valid].tobytes()
                # a valid candidate's superstep lies inside its copy
                k, step, _ = valid.nonzero()
                target = joint.supersteps[block[k]] - 1 + step
                assert np.all(target >= joint.step_offsets[owner[k]])
                assert np.all(target < joint.step_offsets[owner[k] + 1])
        assert any(len(set(c)) > 1 for c in counts)


class TestImproveMany:
    """``improve_many`` gives every schedule what a lone ``improve`` gives it."""

    @staticmethod
    def _assert_each_as_alone(starts, make, budget=None):
        joint = make()
        results = joint.improve_many(starts, budget)
        assert len(results) == len(joint.copy_stops) == len(starts)
        for t, start in enumerate(starts):
            alone = make()
            result = alone.improve(start, budget)
            assert joint.copy_moves[t] == alone.last_moves, t
            assert joint.copy_stops[t] == alone.last_stop, t
            assert (results[t] is start) == (result is start), t
            assert results[t].procs.tobytes() == result.procs.tobytes(), t
            assert results[t].supersteps.tobytes() == result.supersteps.tobytes(), t
            assert results[t].cost() == result.cost(), t
        assert joint.last_stop == joint.copy_stops[0]
        assert joint.last_moves == joint.copy_moves[0]
        return joint

    @pytest.mark.parametrize("kind", ["uniform", "numa"])
    @pytest.mark.parametrize("num_procs", [1, 3, 8, 16])
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_each_copy_climbs_as_alone(self, kind, num_procs, copies):
        rng = np.random.default_rng(100 * num_procs + copies)
        moved = shapes = 0
        for seed in range(3):
            dag = random_dag(int(rng.integers(10, 40)), 0.12, seed=seed)
            machine = _machine(kind, num_procs, rng)
            starts = _starts(dag, machine, copies, seed=seed)
            shapes += len({s.num_supersteps for s in starts}) > 1
            for cap in (None, 2):
                joint = self._assert_each_as_alone(
                    starts, lambda: HillClimbingImprover(max_steps=cap, record_moves=True)
                )
                moved += sum(map(len, joint.copy_moves))
        # one processor: the starts are single-superstep schedules already
        assert (moved > 0) == (num_procs > 1)
        if copies > 1:
            assert shapes > 0

    @pytest.mark.parametrize(
        "make, budget, stop",
        [
            (lambda: HillClimbingImprover(max_steps=1, record_moves=True), None, STEP_CAP),
            (lambda: HillClimbingImprover(record_moves=True), Budget(max_steps=3), STEP_CAP),
            (lambda: HillClimbingImprover(max_passes=1, record_moves=True), None, PASS_CAP),
            (lambda: HillClimbingImprover(max_passes=0, record_moves=True), None, PASS_CAP),
        ],
        ids=["step_cap", "budget_step_cap", "one_pass", "no_pass"],
    )
    def test_caps_hold_per_copy(self, make, budget, stop):
        dag = random_dag(40, 0.1, seed=9)
        machine = BspMachine.numa_hierarchy(8, delta=3, g=3, latency=4)
        joint = self._assert_each_as_alone(_starts(dag, machine, 3), make, budget)
        assert stop in joint.copy_stops

    def test_clock_stops_every_copy_before_scoring(self, monkeypatch):
        """A spent clock: every copy stops with CLOCK, nothing is scored or moved."""
        calls = []
        raw = LazyCostTracker.candidate_deltas
        monkeypatch.setattr(
            LazyCostTracker,
            "candidate_deltas",
            lambda self, nodes: calls.append(1) or raw(self, nodes),
        )
        dag = random_dag(30, 0.15, seed=2)
        machine = BspMachine.uniform(4, g=3, latency=2)
        starts = _starts(dag, machine, 3)
        improver = HillClimbingImprover(record_moves=True)
        results = improver.improve_many(starts, Budget(0.0))
        assert improver.copy_stops == [CLOCK] * 3
        assert improver.copy_moves == [[], [], []]
        assert all(result is start for result, start in zip(results, starts))
        config = PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=0)
        SchedulingPipeline(config).schedule(dag, machine)
        assert not calls

    @pytest.mark.parametrize("cells", [1, 3000])
    def test_capped_blocks_starve_no_copy(self, monkeypatch, cells):
        """A cell cap that scores one node (or a few) per call leaves copies out of rounds."""
        monkeypatch.setattr(hill_climbing, "_BLOCK_CELLS", cells)
        rounds = {"calls": 0, "left_out": 0}
        raw = LazyCostTracker.candidate_deltas

        def counting(self, nodes):
            deltas, valid = raw(self, nodes)
            rounds["calls"] += 1
            copies = np.unique(np.asarray(nodes) // self.dag.num_nodes).size
            rounds["left_out"] += copies > np.unique(
                np.asarray(nodes)[: deltas.shape[0]] // self.dag.num_nodes
            ).size
            return deltas, valid

        monkeypatch.setattr(LazyCostTracker, "candidate_deltas", counting)
        machine = BspMachine.uniform(8, g=2, latency=3)
        for seed in range(2):
            dag = random_dag(30, 0.12, seed=20 + seed)
            self._assert_each_as_alone(
                _starts(dag, machine, 3, seed=seed),
                lambda: HillClimbingImprover(record_moves=True),
            )
        assert rounds["left_out"] > 0

    def test_empty_and_mismatched_inputs(self, machine4):
        improver = HillClimbingImprover()
        empty = RoundRobinScheduler().schedule(ComputationalDAG(0), machine4)
        assert improver.improve_many([empty, empty]) == [empty, empty]
        assert improver.copy_stops == [CONVERGED, CONVERGED]
        dag = random_dag(5, 0.3, seed=1)
        one = RoundRobinScheduler().schedule(dag, machine4)
        other = RoundRobinScheduler().schedule(dag, BspMachine.uniform(4, g=2, latency=1))
        with pytest.raises(ValueError):
            improver.improve_many([one, other])
