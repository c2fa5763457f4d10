"""Differential tests pinning the batched HC/HCcs to the retained seed walkers.

The vectorized refiners must reproduce the seed probe-and-rollback walkers
*move for move*: identical accepted-move sequences (greedy first/best
improvement over the same scan order) and identical final schedules — not
merely equal costs.  The fuzz instances use integer weights and integer
machine parameters, where the two evaluation orders are bit-identical;
:func:`_assert_pinned`'s ``rel_tol`` knob additionally admits the float
drift of real-valued weights (move sequences stay exact, only the scalar
cost comparison widens).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, BspSchedule, ComputationalDAG
from repro.schedulers import CommScheduleHillClimbing, HillClimbingImprover
from repro.schedulers.hill_climbing import LazyCostTracker
from repro.schedulers.reference import (
    CommScheduleHillClimbingReference,
    HillClimbingImproverReference,
)
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import assert_valid_schedule, random_dag


def _random_machine(rng: np.random.Generator) -> BspMachine:
    if rng.random() < 0.5:
        return BspMachine.uniform(
            int(rng.integers(1, 7)),
            g=int(rng.integers(1, 6)),
            latency=int(rng.integers(0, 6)),
        )
    return BspMachine.numa_hierarchy(
        int(2 ** rng.integers(1, 4)),
        delta=int(rng.integers(2, 5)),
        g=int(rng.integers(1, 4)),
        latency=int(rng.integers(0, 4)),
    )


def _real_weight_dag(num_nodes: int, edge_prob: float, seed: int) -> ComputationalDAG:
    """Random DAG with *real-valued* (non-dyadic) node weights."""
    rng = np.random.default_rng(seed)
    works = rng.uniform(0.5, 5.0, size=num_nodes)
    comms = rng.uniform(0.5, 3.0, size=num_nodes)
    dag = ComputationalDAG(num_nodes, works, comms, name=f"real_{seed}")
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_prob:
                dag.add_edge(i, j)
    return dag


def _assert_pinned(reference, batched, start, rel_tol: float = 0.0):
    """Run both improvers on ``start`` and assert move-for-move pinning.

    Accepted-move sequences are always compared exactly.  ``rel_tol=0``
    (the integer/dyadic regime) compares the final costs at pytest's
    default tolerance; a positive ``rel_tol`` widens only that scalar cost
    comparison for real-valued weights, where the batched and the
    probe-and-rollback evaluation orders accumulate different rounding.
    Returns ``(reference_result, batched_result)``.
    """
    ref_result = reference.improve(start)
    vec_result = batched.improve(start)
    assert reference.last_moves == batched.last_moves
    assert vec_result.cost() == pytest.approx(
        ref_result.cost(), rel=rel_tol if rel_tol > 0 else None
    )
    return ref_result, vec_result


def _assert_block_matches_probe(tracker: LazyCostTracker, nodes: np.ndarray) -> int:
    """Score ``nodes`` as one block; pin every entry to the mutating probe.

    Every validity bit must equal :meth:`LazyCostTracker.is_valid_move`
    (staying put excluded) and every valid delta the ``apply_move`` probe,
    which is rolled back before the next candidate, so the whole block is
    checked against the one state it was scored on.  Returns how many
    nodes of the block were scored.
    """
    deltas, valid = tracker.candidate_deltas(nodes)
    scored = deltas.shape[0]
    assert 1 <= scored <= nodes.size
    assert deltas.shape == valid.shape == (scored, 3, tracker.machine.num_procs)
    for k, v in enumerate(nodes[:scored].tolist()):
        p0 = int(tracker.procs[v])
        s0 = int(tracker.supersteps[v])
        for i in range(3):
            s = s0 - 1 + i
            for q in range(tracker.machine.num_procs):
                expected_valid = tracker.is_valid_move(v, q, s) and (q, s) != (p0, s0)
                assert bool(valid[k, i, q]) == expected_valid, (v, q, s)
                if not expected_valid:
                    continue
                probe = tracker.apply_move(v, q, s)
                tracker.apply_move(v, p0, s0)
                assert deltas[k, i, q] == probe, (v, q, s)
    return scored


def _tiny_rcm_cholesky() -> ComputationalDAG:
    """The paper-scale ``tiny`` RCM Cholesky DAG (60 nodes, in-degree up to 25)."""
    from repro.dagdb import build_dataset

    (instance,) = [
        instance
        for instance in build_dataset("tiny", scale="paper", seed=1)
        if instance.generator == "cholesky_rcm"
    ]
    return instance.dag


class TestCandidateDeltas:
    def test_deltas_match_apply_move(self):
        """Each node alone, the whole range, random sub-blocks: all equal the probe."""
        rng = np.random.default_rng(5)
        for seed in range(6):
            dag = random_dag(22, 0.2, seed=seed)
            n = dag.num_nodes
            for machine in (
                BspMachine.uniform(
                    int(rng.integers(1, 7)), g=int(rng.integers(1, 6)), latency=2
                ),
                BspMachine.numa_hierarchy(
                    int(2 ** rng.integers(1, 4)), delta=3, g=2, latency=1
                ),
            ):
                schedule = RoundRobinScheduler().schedule(dag, machine)
                tracker = LazyCostTracker(
                    dag, machine, schedule.procs, schedule.supersteps
                )
                for v in range(n):
                    assert _assert_block_matches_probe(tracker, np.array([v])) == 1
                assert _assert_block_matches_probe(tracker, np.arange(n)) == n
                for _ in range(4):
                    lo = int(rng.integers(0, n))
                    block = np.arange(lo, int(rng.integers(lo + 1, n + 1)))
                    assert _assert_block_matches_probe(tracker, block) == block.size

    def test_validity_mask_matches_is_valid_move(self):
        dag = random_dag(18, 0.25, seed=9)
        machine = BspMachine.uniform(3, g=1, latency=1)
        schedule = RoundRobinScheduler().schedule(dag, machine)
        tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
        _, valid = tracker.candidate_deltas(np.arange(dag.num_nodes))
        assert valid.shape == (dag.num_nodes, 3, machine.num_procs)
        for v in range(dag.num_nodes):
            s0 = int(tracker.supersteps[v])
            p0 = int(tracker.procs[v])
            for i in range(3):
                for q in range(machine.num_procs):
                    expected = tracker.is_valid_move(v, q, s0 - 1 + i) and (
                        (q, s0 - 1 + i) != (p0, s0)
                    )
                    assert bool(valid[v, i, q]) == expected

    def test_cell_cap_truncates_block(self, monkeypatch):
        """P=16 on a high-fan-in DAG: blocks come back short, HC stays pinned."""
        dag = _tiny_rcm_cholesky()
        machine = BspMachine.uniform(16, g=1, latency=5)
        start = RoundRobinScheduler().schedule(dag, machine)
        tracker = LazyCostTracker(dag, machine, start.procs, start.supersteps)
        nodes = np.arange(dag.num_nodes)
        scored = _assert_block_matches_probe(tracker, nodes)
        assert scored < nodes.size
        # the rest of the range is scored by the following blocks
        while scored < nodes.size:
            scored += _assert_block_matches_probe(tracker, nodes[scored:])

        sizes: list[tuple[int, int]] = []
        evaluate = LazyCostTracker.candidate_deltas

        def recording(self, block):
            result = evaluate(self, block)
            sizes.append((len(block), result[0].shape[0]))
            return result

        monkeypatch.setattr(LazyCostTracker, "candidate_deltas", recording)
        reference = HillClimbingImproverReference(max_steps=20, record_moves=True)
        batched = HillClimbingImprover(max_steps=20, record_moves=True)
        ref_result, vec_result = _assert_pinned(reference, batched, start)
        assert len(batched.last_moves) == 20
        assert any(got < asked for asked, got in sizes)
        assert np.array_equal(ref_result.procs, vec_result.procs)
        assert np.array_equal(ref_result.supersteps, vec_result.supersteps)


class TestHillClimbingDifferential:
    def test_identical_move_sequences_and_schedules(self):
        """Random DAGs x machines x seeds: the batched path is pinned move-for-move."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            dag = random_dag(
                int(rng.integers(5, 45)), float(rng.uniform(0.05, 0.3)), seed=seed
            )
            machine = _random_machine(rng)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = HillClimbingImproverReference(record_moves=True)
            batched = HillClimbingImprover(record_moves=True)
            ref_result, vec_result = _assert_pinned(reference, batched, start)
            assert np.array_equal(ref_result.procs, vec_result.procs), seed
            assert np.array_equal(ref_result.supersteps, vec_result.supersteps), seed
            assert_valid_schedule(vec_result)

    def test_identical_under_max_steps(self):
        for seed in range(4):
            dag = random_dag(30, 0.15, seed=40 + seed)
            machine = BspMachine.uniform(4, g=3, latency=2)
            start = RoundRobinScheduler().schedule(dag, machine)
            for max_steps in (1, 3, 7):
                reference = HillClimbingImproverReference(
                    max_steps=max_steps, record_moves=True
                )
                batched = HillClimbingImprover(max_steps=max_steps, record_moves=True)
                ref_result = reference.improve(start)
                vec_result = batched.improve(start)
                assert reference.last_moves == batched.last_moves
                assert np.array_equal(ref_result.procs, vec_result.procs)
                assert np.array_equal(ref_result.supersteps, vec_result.supersteps)

    def test_max_steps_respected_mid_pass(self):
        """Regression: the accepted-move cap must cut a pass short, not finish it.

        A round-robin chain schedule has an improving move at almost every
        node, so an uncapped first pass accepts far more moves than the cap;
        the capped run must stop at exactly ``max_steps`` accepted moves.
        """
        dag = ComputationalDAG(12)
        for i in range(11):
            dag.add_edge(i, i + 1)
        machine = BspMachine.uniform(4, g=5, latency=1)
        start = RoundRobinScheduler().schedule(dag, machine)
        unlimited = HillClimbingImprover(record_moves=True)
        unlimited.improve(start)
        assert len(unlimited.last_moves) > 2
        capped = HillClimbingImprover(max_steps=2, record_moves=True)
        capped_result = capped.improve(start)
        assert len(capped.last_moves) == 2
        assert capped.last_moves == unlimited.last_moves[:2]
        assert capped_result.cost() <= start.cost()


class TestCommHillClimbingDifferential:
    def test_identical_move_sequences_and_schedules(self):
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            dag = random_dag(
                int(rng.integers(6, 50)), float(rng.uniform(0.05, 0.3)), seed=seed
            )
            machine = _random_machine(rng)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = CommScheduleHillClimbingReference(record_moves=True)
            batched = CommScheduleHillClimbing(record_moves=True)
            ref_result, vec_result = _assert_pinned(reference, batched, start)
            assert ref_result.comm_schedule == vec_result.comm_schedule, seed
            assert_valid_schedule(vec_result)

    def test_identical_from_explicit_start(self):
        """A second HCcs run starts from the first run's explicit schedule."""
        dag = random_dag(30, 0.2, seed=77)
        machine = BspMachine.uniform(4, g=2, latency=1)
        start = RoundRobinScheduler().schedule(dag, machine)
        first = CommScheduleHillClimbing().improve(start)
        reference = CommScheduleHillClimbingReference(record_moves=True)
        batched = CommScheduleHillClimbing(record_moves=True)
        ref_result = reference.improve(first)
        vec_result = batched.improve(first)
        assert reference.last_moves == batched.last_moves
        assert ref_result.comm_schedule == vec_result.comm_schedule


class TestRealValuedWeightsDifferential:
    """Pinning under real-valued weights via the ``rel_tol`` knob.

    With non-dyadic float weights the batched and probe-and-rollback
    evaluation orders are no longer bit-identical; candidate deltas can
    drift by a few ulp.  On these fixed seeds every delta gap is far above
    that drift, so the accepted-move sequences still agree exactly and only
    the scalar cost comparison needs the widened tolerance.
    """

    REL_TOL = 1e-9

    def test_hc_pinned_on_real_weights(self):
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            dag = _real_weight_dag(
                int(rng.integers(8, 40)), float(rng.uniform(0.08, 0.25)), seed=seed
            )
            machine = _random_machine(rng)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = HillClimbingImproverReference(record_moves=True)
            batched = HillClimbingImprover(record_moves=True)
            ref_result, vec_result = _assert_pinned(
                reference, batched, start, rel_tol=self.REL_TOL
            )
            assert np.array_equal(ref_result.procs, vec_result.procs), seed
            assert np.array_equal(ref_result.supersteps, vec_result.supersteps), seed
            assert_valid_schedule(vec_result)

    def test_hccs_pinned_on_real_weights(self):
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            dag = _real_weight_dag(
                int(rng.integers(8, 45)), float(rng.uniform(0.08, 0.25)), seed=seed
            )
            machine = _random_machine(rng)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = CommScheduleHillClimbingReference(record_moves=True)
            batched = CommScheduleHillClimbing(record_moves=True)
            ref_result, vec_result = _assert_pinned(
                reference, batched, start, rel_tol=self.REL_TOL
            )
            assert ref_result.comm_schedule == vec_result.comm_schedule, seed
            assert_valid_schedule(vec_result)


class TestTrackerReuse:
    def test_refine_assignment_reuses_tracker(self):
        dag = random_dag(25, 0.2, seed=3)
        machine = BspMachine.uniform(4, g=2, latency=2)
        schedule = RoundRobinScheduler().schedule(dag, machine)
        improver = HillClimbingImprover(max_steps=3)
        tracker, accepted = improver.refine_assignment(
            dag, machine, schedule.procs, schedule.supersteps
        )
        assert accepted <= 3
        cost_after_first = tracker.cost()
        again, _ = improver.refine_assignment(
            dag, machine, tracker.procs, tracker.supersteps, tracker=tracker
        )
        assert again is tracker  # reused, not rebuilt
        assert tracker.cost() <= cost_after_first
        procs, steps = tracker.assignment()
        assert BspSchedule(dag, machine, procs, steps).is_valid()

    def test_refine_assignment_rebuilds_on_caller_edit(self):
        """An assignment edit between bursts must not be silently discarded."""
        dag = random_dag(25, 0.2, seed=3)
        machine = BspMachine.uniform(4, g=2, latency=2)
        schedule = RoundRobinScheduler().schedule(dag, machine)
        improver = HillClimbingImprover(max_steps=2)
        tracker, accepted = improver.refine_assignment(
            dag, machine, schedule.procs, schedule.supersteps
        )
        assert accepted > 0  # the tracker state has moved off the input arrays
        # hand the original (now stale) arrays back with the moved tracker:
        # the mismatch must force a rebuild from the given arrays
        rebuilt, _ = improver.refine_assignment(
            dag, machine, schedule.procs, schedule.supersteps, tracker=tracker
        )
        assert rebuilt is not tracker

    def test_refine_assignment_matches_reference_burst(self):
        """One burst on arrays == the reference improver's accepted prefix."""
        dag = random_dag(25, 0.2, seed=8)
        machine = BspMachine.uniform(4, g=3, latency=2)
        schedule = RoundRobinScheduler().schedule(dag, machine)
        improver = HillClimbingImprover(max_steps=5, record_moves=True)
        tracker, _ = improver.refine_assignment(
            dag, machine, schedule.procs, schedule.supersteps
        )
        reference = HillClimbingImproverReference(max_steps=5, record_moves=True)
        reference.improve(schedule)
        assert improver.last_moves == reference.last_moves
        assert tracker.cost() <= LazyCostTracker(
            dag, machine, schedule.procs, schedule.supersteps
        ).cost()


class TestCompactedAssignment:
    def test_tracker_compaction_matches_schedule_compacted(self):
        """Tracker-side compaction equals BspSchedule.compacted() renumbering."""
        for seed in range(6):
            dag = random_dag(24, 0.2, seed=60 + seed)
            machine = BspMachine.uniform(4, g=2, latency=3)
            schedule = RoundRobinScheduler().schedule(dag, machine)
            tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
            # empty a superstep by climbing a few moves
            HillClimbingImprover(max_steps=8).climb(tracker)
            procs, steps, num_used = tracker.compacted_assignment()
            expected = BspSchedule(
                dag, machine, tracker.procs, tracker.supersteps, validate=False
            ).compacted()
            assert np.array_equal(procs, expected.procs)
            assert np.array_equal(steps, expected.supersteps)
            assert num_used == expected.num_supersteps

    def test_multilevel_levels_are_compacted_between_bursts(self):
        """The uncoarsening loop must not accumulate empty supersteps."""
        from repro.schedulers import BspGreedyScheduler, MultilevelScheduler

        dag = random_dag(60, 0.08, seed=21)
        machine = BspMachine.uniform(4, g=4, latency=3)
        scheduler = MultilevelScheduler(
            base_scheduler=BspGreedyScheduler(), coarsening_ratios=(0.3,)
        )
        schedule = scheduler.schedule(dag, machine)
        assert_valid_schedule(schedule)
        # every superstep of the result carries computation or communication
        used = set(schedule.supersteps.tolist())
        used |= {step.superstep for step in schedule.comm_schedule}
        assert used == set(range(schedule.num_supersteps))
