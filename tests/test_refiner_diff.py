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

from repro.core import BspMachine, BspSchedule, ComputationalDAG, kernels
from repro.core.kernels import _HC_BLOCK_MAX
from repro.schedulers import (
    BspGreedyScheduler,
    CommScheduleHillClimbing,
    HillClimbingImprover,
    SourceScheduler,
)
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

    @pytest.mark.parametrize(
        "machine",
        [
            BspMachine.uniform(16, g=2, latency=5),
            BspMachine.numa_hierarchy(16, delta=4, g=1, latency=5),
        ],
        ids=["uniform16", "numa16"],
    )
    def test_sixteen_processors_from_heuristic_starts(self, machine):
        """BSPg and Source starts, and the states a step-capped climb leaves.

        Both starts of the high-fan-in RCM Cholesky DAG are already local
        optima at P=16; the random DAG's climbs accept moves.
        """
        climbed = 0
        for dag in (_tiny_rcm_cholesky(), random_dag(36, 0.12, seed=31)):
            nodes = np.arange(dag.num_nodes)
            for initializer in (BspGreedyScheduler(), SourceScheduler()):
                start = initializer.schedule(dag, machine)
                tracker = LazyCostTracker(dag, machine, start.procs, start.supersteps)
                for climb in (False, True):
                    if climb:
                        moves = HillClimbingImprover(max_steps=12).climb(tracker)
                        climbed += moves
                        if not moves:
                            break
                    scored = 0
                    while scored < nodes.size:
                        scored += _assert_block_matches_probe(tracker, nodes[scored:])
        assert climbed > 0

    def test_predecessor_leaving_a_later_row(self):
        """A predecessor's transfer to q moves up from a later row.

        u (node 0, processor 0) feeds v (node 1) and w (node 2, processor 1,
        superstep 3), so u's value goes to processor 1 in phase 2.  Moving v
        to processor 1 at superstep 1 or 2 pulls that transfer up to phase
        s - 1 and lowers phase 2, where v's own transfer to its successor x
        (node 4, processor 0, superstep 3) now lands.
        """
        dag = ComputationalDAG(5, [1.0] * 5, [2.0, 1.0, 1.0, 1.0, 1.0])
        for u, v in ((0, 1), (0, 2), (1, 4)):
            dag.add_edge(u, v)
        machine = BspMachine.uniform(2, g=1, latency=0)
        tracker = LazyCostTracker(dag, machine, [0, 0, 1, 0, 0], [0, 1, 3, 2, 3])
        assert _assert_block_matches_probe(tracker, np.arange(5)) == 5
        deltas, valid = tracker.candidate_deltas(np.array([1]))
        # phase 0 gains u's transfer (+2); phase 2 drops from u's 2 to v's 1
        assert valid[0, 1, 1] and deltas[0, 1, 1] == 1.0
        assert valid[0, 2, 1] and deltas[0, 2, 1] == 0.0

    def test_non_contiguous_blocks_match_apply_move(self):
        """Strided blocks and the blocks a skip mask leaves, on climbed states."""
        rng = np.random.default_rng(17)
        for seed in range(4):
            dag = random_dag(24, 0.2, seed=40 + seed)
            n = dag.num_nodes
            for machine in (
                BspMachine.uniform(int(rng.integers(2, 6)), g=2, latency=1),
                BspMachine.numa_hierarchy(4, delta=3, g=1, latency=2),
            ):
                start = RoundRobinScheduler().schedule(dag, machine)
                tracker = LazyCostTracker(dag, machine, start.procs, start.supersteps)
                HillClimbingImprover(max_steps=3).climb(tracker)
                for step in (2, 3, 5):
                    block = np.arange(int(rng.integers(0, step)), n, step)
                    assert _assert_block_matches_probe(tracker, block) == block.size
                for _ in range(3):
                    block = np.flatnonzero(rng.random(n) < 0.6)
                    assert _assert_block_matches_probe(tracker, block) == block.size

    def test_shared_predecessor_rescans_a_repeated_unsorted_list(self):
        """Predecessors whose need only one block node achieves, in any order.

        Nodes 2 and 3 sit on processor 0 and share predecessor 0, whose need
        there only node 2 achieves; node 4 is 0's sole achiever on processor
        1, and node 2 lists its predecessors as ``[1, 0]``.  So the entries
        whose need the block rescans have the predecessor list ``[1, 0, 0]``
        — repeated and unsorted — for the contiguous block and for the
        block without node 3.
        """
        dag = ComputationalDAG(
            8, [1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 2.0, 1.0], [2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 1.0, 2.0]
        )
        for u, v in ((1, 2), (0, 2), (0, 3), (0, 4), (0, 5), (2, 6), (3, 7), (4, 7), (1, 6)):
            dag.add_edge(u, v)
        procs = [0, 1, 0, 0, 1, 1, 1, 0]
        steps = [0, 0, 1, 2, 1, 3, 2, 3]
        for machine in (
            BspMachine.uniform(3, g=2, latency=1),
            BspMachine.numa_hierarchy(4, delta=2, g=1, latency=1),
        ):
            tracker = LazyCostTracker(dag, machine, procs, steps)
            for block in (np.array([2, 3, 4]), np.array([2, 4])):
                rescanned = [
                    u
                    for v in block.tolist()
                    for u in dag.pred(v).tolist()
                    if tracker.need_min[u, procs[v]] == steps[v]
                    and tracker.need_cnt[u, procs[v]] == 1
                ]
                assert rescanned == [1, 0, 0]
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


def _record_blocks(monkeypatch) -> list[list[int]]:
    """Record the node count every ``candidate_deltas`` call asks for.

    One list per HC pass, in call order.
    """
    passes: list[list[int]] = []
    evaluate = LazyCostTracker.candidate_deltas
    run_pass = kernels.hc_pass

    def recording_deltas(self, block):
        passes[-1].append(len(block))
        return evaluate(self, block)

    def recording_pass(*args, **kwargs):
        passes.append([])
        return run_pass(*args, **kwargs)

    monkeypatch.setattr(LazyCostTracker, "candidate_deltas", recording_deltas)
    monkeypatch.setattr(kernels, "hc_pass", recording_pass)
    return passes


class TestBlockWalk:
    """Every HC pass opens with a full-size block; the moves stay the seed's."""

    def test_every_pass_opens_with_a_full_block(self, monkeypatch):
        passes = _record_blocks(monkeypatch)
        for seed, num_nodes in ((0, 300), (1, 40)):
            passes.clear()
            dag = random_dag(num_nodes, 4.0 / num_nodes, seed=seed)
            machine = BspMachine.uniform(4, g=2, latency=3)
            start = RoundRobinScheduler().schedule(dag, machine)
            HillClimbingImprover().improve(start)
            assert len(passes) > 1
            for blocks in passes:
                assert blocks[0] == min(_HC_BLOCK_MAX, num_nodes)

    def test_converged_pass_is_one_block(self, monkeypatch):
        dag = random_dag(60, 0.1, seed=4)
        machine = BspMachine.numa_hierarchy(4, delta=3, g=2, latency=2)
        start = RoundRobinScheduler().schedule(dag, machine)
        tracker = LazyCostTracker(dag, machine, start.procs, start.supersteps)
        climber = HillClimbingImprover(max_passes=1000)
        assert climber.climb(tracker) > 0
        passes = _record_blocks(monkeypatch)
        assert climber.climb(tracker) == 0
        assert passes == [[dag.num_nodes]]

    def test_skip_mask_holds_until_the_first_move(self, monkeypatch):
        """Only unmasked nodes are scored until a move; then every node is."""
        dag = random_dag(300, 4.0 / 300, seed=12)
        machine = BspMachine.uniform(4, g=2, latency=3)
        start = HillClimbingImprover().improve(RoundRobinScheduler().schedule(dag, machine))
        tracker = LazyCostTracker(dag, machine, start.procs, start.supersteps)
        # a worsening move in the middle of a converged state
        for node in range(150, dag.num_nodes):
            deltas, valid = tracker.candidate_deltas(np.array([node]))
            worse = np.argwhere(valid[0] & (deltas[0] > 0))
            if worse.size:
                step, proc = (int(x) for x in worse[0])
                tracker.apply_move(node, proc, int(tracker.supersteps[node]) - 1 + step)
                break
        state = tracker.assignment()

        scored: list[list[int]] = []
        evaluate = LazyCostTracker.candidate_deltas

        def recording(self, block):
            result = evaluate(self, block)
            scored.append(np.asarray(block)[: result[0].shape[0]].tolist())
            return result

        monkeypatch.setattr(LazyCostTracker, "candidate_deltas", recording)
        full = kernels.hc_pass(LazyCostTracker(dag, machine, *state), 0, dag.num_nodes)[1]
        full_blocks = list(scored)
        first = full[0][0]
        # no node before the first move has an improving move: mask every
        # third node, also after it
        skip = np.arange(dag.num_nodes) % 3 == 0
        skip[first] = False
        assert skip[:first].any()
        scored.clear()
        masked = kernels.hc_pass(
            LazyCostTracker(dag, machine, *state), 0, dag.num_nodes, skip=skip
        )[1]
        assert masked == full
        hit = next(i for i, block in enumerate(scored) if first in block)
        before = [node for block in scored[: hit + 1] for node in block]
        assert before == np.flatnonzero(~skip)[: len(before)].tolist()
        full_hit = next(i for i, block in enumerate(full_blocks) if first in block)
        after = scored[hit + 1 :]
        assert after and after == full_blocks[full_hit + 1 :]
        assert skip[[node for block in after for node in block]].any()

    def test_reused_tracker_bursts_match_reference(self, monkeypatch):
        """Short capped bursts on one reused tracker, as multilevel runs them.

        A reused tracker keeps the superstep count it was built with, also
        after its last superstep empties, so the reference walks a tracker
        of that count too.
        """
        from repro.schedulers import reference as reference_module

        spans: list[int] = []
        monkeypatch.setattr(
            reference_module,
            "LazyCostTracker",
            lambda dag, machine, procs, steps, _count: LazyCostTracker(
                dag, machine, procs, steps, spans[-1]
            ),
        )
        for seed in range(6):
            rng = np.random.default_rng(900 + seed)
            dag = random_dag(
                int(rng.integers(20, 60)), float(rng.uniform(0.05, 0.2)), seed=seed
            )
            machine = _random_machine(rng)
            start = RoundRobinScheduler().schedule(dag, machine)
            max_steps = int(rng.integers(1, 8))
            improver = HillClimbingImprover(max_steps=max_steps, record_moves=True)
            procs, steps = start.procs, start.supersteps
            tracker = None
            for _ in range(8):
                spans.append(
                    int(steps.max()) + 1 if tracker is None else tracker.num_supersteps
                )
                reference = HillClimbingImproverReference(
                    max_steps=max_steps, record_moves=True
                )
                reference.improve(BspSchedule(dag, machine, procs, steps))
                reused, accepted = improver.refine_assignment(
                    dag, machine, procs, steps, tracker=tracker
                )
                assert tracker is None or reused is tracker
                assert improver.last_moves == reference.last_moves, seed
                tracker = reused
                procs, steps = tracker.procs, tracker.supersteps
                if accepted == 0:
                    break


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

    @pytest.mark.parametrize("weights", ["real", "zero_comm"])
    def test_improve_leaves_no_empty_superstep(self, weights):
        """HC compacts exactly like the seed walker's ``BspSchedule.compacted()``.

        Real weights leave float residue in the traffic row of an emptied
        superstep; a zero comm weight gives a transfer that occupies its
        phase but leaves no traffic at all.  Neither may decide compaction.
        """
        machine = BspMachine.uniform(4, g=3, latency=2)
        # on seed 24 (real) and seeds 4 and 16 (zero comm) the traffic rows
        # misjudge a superstep of the climbed schedule
        for seed in range(4, 25, 4):
            if weights == "real":
                dag = _real_weight_dag(30, 0.12, seed)
            else:
                dag = random_dag(30, 0.12, seed=seed)
                zero = np.arange(dag.num_nodes) % 3 == 0
                dag.set_comm_weights(np.where(zero, 0.0, dag.comm_weights))
            start = RoundRobinScheduler().schedule(dag, machine)
            out = HillClimbingImprover().improve(start)
            expected = HillClimbingImproverReference().improve(start)
            assert out.compacted().num_supersteps == out.num_supersteps, seed
            assert out.cost() == pytest.approx(expected.cost(), rel=1e-9), seed

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
