"""Differential tests: vectorized validation/conversion vs the reference walkers.

The vectorized :func:`repro.core.validation.schedule_violations` and
:func:`repro.core.classical.classical_to_bsp` must be *bit-identical* to the
pure-Python reference implementations in :mod:`oracles.core` — same
messages, same order, same truncation — on valid schedules, on invalid
schedules from every violation category, and on randomized dagdb instances.
The lazy branch (``comm_schedule=None``) must give the verdict, messages and
exception type of the same check run on the explicit lazy ``Γ``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BspMachine,
    ClassicalSchedule,
    CommStep,
    ScheduleError,
    classical_to_bsp,
    lazy_comm_schedule,
    schedule_violations,
    validate_schedule,
)
from repro.dagdb import SparseMatrixPattern, build_cg_dag, build_spmv_dag
from repro.schedulers import BspGreedyScheduler, CilkScheduler, SourceScheduler

from conftest import build_chain_dag, build_diamond_dag, build_paper_example_dag, random_dag
from oracles.core import (
    adjacency_from_edges,
    classical_to_bsp_ref,
    schedule_violations_ref,
)
from oracles.cost import lazy_gamma, violations as oracle_violations


def ref_violations(dag, machine, procs, supersteps, steps, max_violations=20):
    """Run the reference walker on the plain-data image of the same instance."""
    src, dst = dag.edge_arrays()
    return schedule_violations_ref(
        dag.num_nodes,
        machine.num_procs,
        list(zip(src.tolist(), dst.tolist())),
        np.asarray(procs),
        np.asarray(supersteps),
        list(steps),
        max_violations,
    )


def assert_same_violations(dag, machine, procs, supersteps, steps, max_violations=20):
    procs = np.asarray(procs)
    supersteps = np.asarray(supersteps)
    steps = list(steps)
    fast = schedule_violations(dag, machine, procs, supersteps, steps, max_violations)
    slow = ref_violations(dag, machine, procs, supersteps, steps, max_violations)
    assert fast == slow
    return fast


def dagdb_instances():
    yield build_spmv_dag(
        SparseMatrixPattern.random(6, 0.4, seed=3, ensure_diagonal=True)
    ).dag
    yield build_cg_dag(
        SparseMatrixPattern.random(4, 0.5, seed=7, ensure_diagonal=True), 2
    ).dag
    yield build_paper_example_dag()
    for seed in (0, 1, 2):
        yield random_dag(25, 0.15, seed=seed)


class TestDifferentialOnSchedulerOutput:
    """Valid schedules from the real schedulers agree (and are violation free)."""

    @pytest.mark.parametrize("procs_count", [1, 2, 4])
    def test_scheduler_outputs(self, procs_count):
        machine = BspMachine.uniform(procs_count, g=2, latency=3)
        for dag in dagdb_instances():
            for scheduler in (BspGreedyScheduler(), SourceScheduler(), CilkScheduler(0)):
                schedule = scheduler.schedule(dag, machine)
                steps = sorted(schedule.comm_schedule)
                violations = assert_same_violations(
                    dag, machine, schedule.procs, schedule.supersteps, steps
                )
                assert violations == []

    def test_forwarding_chain(self):
        machine = BspMachine.uniform(4, g=1, latency=1)
        dag = build_chain_dag(2)
        procs = np.array([0, 3])
        supersteps = np.array([0, 4])
        chain = [CommStep(0, 0, 1, 0), CommStep(0, 1, 2, 1), CommStep(0, 2, 3, 2)]
        assert assert_same_violations(dag, machine, procs, supersteps, chain) == []
        # breaking any link of the chain must produce the same messages too
        for drop in range(3):
            broken = [s for i, s in enumerate(chain) if i != drop]
            violations = assert_same_violations(dag, machine, procs, supersteps, broken)
            assert violations


class TestDifferentialOnInvalidSchedules:
    """Every violation category produces identical messages through both paths."""

    def cases(self):
        machine = BspMachine.uniform(2, g=1, latency=1)
        chain = build_chain_dag(2)
        diamond = build_diamond_dag()
        yield machine, chain, [0, 5], [0, 1], []  # invalid processor
        yield machine, chain, [0, 0], [0, -1], []  # negative superstep
        yield machine, chain, [0, 0], [1, 0], []  # same-proc precedence
        yield machine, chain, [0, 1], [0, 1], []  # cross-proc, no comm
        yield machine, chain, [0, 1], [0, 1], [CommStep(0, 0, 1, 1)]  # comm too late
        yield machine, chain, [0, 0], [0, 1], [CommStep(0, 0, 0, 0)]  # self send
        yield machine, chain, [0, 0], [0, 1], [CommStep(0, 0, 9, 0)]  # invalid comm proc
        yield machine, chain, [0, 0], [0, 1], [CommStep(0, 0, 1, -2)]  # negative comm phase
        yield machine, chain, [0, 0], [0, 1], [CommStep(9, 0, 1, 0)]  # unknown node id
        yield machine, chain, [0, 1], [1, 3], [CommStep(0, 0, 1, 0)]  # sent before computed
        yield machine, chain, [0, 0], [0, 1], [CommStep(0, 1, 0, 0)]  # wrong source proc
        # redundant deliveries: duplicate send and loop back to the computing proc
        yield machine, chain, [0, 1], [0, 2], [CommStep(0, 0, 1, 0), CommStep(0, 0, 1, 1)]
        yield (
            BspMachine.uniform(3),
            chain,
            [0, 2],
            [0, 3],
            [CommStep(0, 0, 1, 0), CommStep(0, 1, 2, 1), CommStep(0, 1, 0, 1)],
        )
        yield machine, diamond, [0, 1, 1, 0], [0, 0, 0, 0], []  # several categories at once

    def test_categories(self):
        for machine, dag, procs, supersteps, steps in self.cases():
            violations = assert_same_violations(dag, machine, procs, supersteps, steps)
            assert violations

    def test_max_violations_truncation(self):
        machine = BspMachine.uniform(2)
        dag = build_chain_dag(40)
        procs = np.zeros(40, dtype=np.int64)
        supersteps = -np.ones(40, dtype=np.int64)
        for cap in (1, 3, 20):
            violations = assert_same_violations(
                dag, machine, procs, supersteps, [], max_violations=cap
            )
            assert len(violations) == cap


class TestDifferentialRandomized:
    """Fuzz both paths with random (mostly broken) schedules and comm steps."""

    def test_random_assignments_and_steps(self):
        rng = np.random.default_rng(42)
        machine = BspMachine.uniform(3, g=1, latency=1)
        for trial in range(40):
            dag = random_dag(12, 0.2, seed=trial)
            n = dag.num_nodes
            # mostly valid ranges; a few trials use out-of-range ids, which
            # TestOutOfRangeIds covers in depth
            degenerate = trial % 8 == 0
            hi_proc = 5 if degenerate else 3
            procs = rng.integers(0, hi_proc, size=n)
            supersteps = rng.integers(-1, 4, size=n)
            steps = [
                CommStep(
                    int(rng.integers(0, n + (2 if degenerate else 0))),
                    int(rng.integers(0, hi_proc)),
                    int(rng.integers(0, hi_proc)),
                    int(rng.integers(-1, 4)),
                )
                for _ in range(int(rng.integers(0, 10)))
            ]
            assert_same_violations(dag, machine, procs, supersteps, steps)

    def test_perturbed_valid_schedules(self):
        rng = np.random.default_rng(7)
        machine = BspMachine.uniform(4, g=1, latency=2)
        for seed in range(8):
            dag = random_dag(20, 0.15, seed=100 + seed)
            schedule = BspGreedyScheduler().schedule(dag, machine)
            procs = schedule.procs.copy()
            supersteps = schedule.supersteps.copy()
            steps = sorted(schedule.comm_schedule)
            # flip one node's placement and one step's phase
            victim = int(rng.integers(0, dag.num_nodes))
            procs[victim] = (procs[victim] + 1) % machine.num_procs
            if steps:
                i = int(rng.integers(0, len(steps)))
                steps[i] = steps[i]._replace(superstep=steps[i].superstep + 3)
            assert_same_violations(dag, machine, procs, supersteps, steps)


class TestOutOfRangeIds:
    """Ids outside the machine and the DAG, negative ones included, run the
    vectorized passes and still match the seed walker exactly."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_seed_walker(self, data):
        import repro.core.validation as validation

        n = data.draw(st.integers(1, 12), label="n")
        dag = random_dag(n, data.draw(st.floats(0.0, 0.4)), seed=data.draw(st.integers(0, 999)))
        num_procs = data.draw(st.integers(1, 4), label="P")
        proc_ids = st.integers(-3, num_procs + 2)
        procs = data.draw(st.lists(proc_ids, min_size=n, max_size=n), label="procs")
        supersteps = data.draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
        steps = data.draw(
            st.lists(
                st.builds(CommStep, st.integers(-3, n + 2), proc_ids, proc_ids, st.integers(-1, 4)),
                max_size=10,
            ),
            label="steps",
        )
        cap = data.draw(st.integers(1, 25), label="max_violations")
        sparse = data.draw(st.booleans(), label="sparse table")
        machine = BspMachine.uniform(num_procs, g=1, latency=1)
        with mock.patch.object(validation, "_MAX_DENSE_CELLS", 0 if sparse else 64_000_000):
            assert_same_violations(dag, machine, procs, supersteps, steps, cap)


HUGE = 10**12
# the diamond on P=2 is valid as procs [0, 0, 1, 0], supersteps [0, 1, 1, 2]
# with the sends (0, 0->1, 0) and (2, 1->0, 1); each case breaks it one way
OUT_OF_RANGE_CASES = {
    "node-processor-negative": (
        [0, 0, -1, 0], [0, 1, 1, 2], [CommStep(0, 0, 1, 0), CommStep(2, 1, 0, 1)],
        "node 2 assigned to invalid processor -1", None,
    ),
    "node-processor-at-P": (
        [0, 0, 2, 0], [0, 1, 1, 2], [CommStep(0, 0, 1, 0), CommStep(2, 1, 0, 1)],
        "value of 0 never reaches processor 2", None,
    ),
    # the huge id still forwards node 0 in and node 2 out: no edge breaks
    "huge-processor-id": (
        [0, 0, HUGE, 0], [0, 1, 1, 2], [CommStep(0, 0, HUGE, 0), CommStep(2, HUGE, 0, 1)],
        f"invalid processor {HUGE}", "never reaches",
    ),
    "comm-source-negative": (
        [0, 0, 1, 0], [0, 1, 1, 2], [CommStep(0, -1, 1, 0), CommStep(2, 1, 0, 1)],
        "not available on processor -1", None,
    ),
    "comm-target-at-P": (
        [0, 0, 1, 0], [0, 1, 1, 2], [CommStep(0, 0, 1, 0), CommStep(2, 1, 2, 1)],
        "value of 2 never reaches processor 0", None,
    ),
    "forwarding-through-an-invalid-processor": (
        [0, 0, 1, 0], [0, 1, 2, 3],
        [CommStep(0, 0, 2, 0), CommStep(0, 2, 1, 1), CommStep(2, 1, 0, 2)],
        "references an invalid processor", "not available",
    ),
    # what reached processor 2 must not be present on processor -1
    "invalid-processors-stay-apart": (
        [0, 0, 1, 0], [0, 1, 2, 3],
        [CommStep(0, 0, 2, 0), CommStep(0, -1, 1, 1), CommStep(2, 1, 0, 2)],
        "not available on processor -1", None,
    ),
    # three unknown nodes sent alike are three values, not one re-delivered
    "unknown-nodes-stay-apart": (
        [0, 0, 1, 0], [0, 1, 1, 2],
        [CommStep(0, 0, 1, 0), CommStep(2, 1, 0, 1), CommStep(4, 0, 1, 0),
         CommStep(5, 0, 1, 0), CommStep(-1, 0, 1, 0)],
        "value of node -1 is not available", "re-delivers",
    ),
    "unknown-node-sent-twice": (
        [0, 0, 1, 0], [0, 1, 1, 2],
        [CommStep(0, 0, 1, 0), CommStep(2, 1, 0, 1), CommStep(4, 0, 1, 0), CommStep(4, 0, 1, 0)],
        "re-delivers the value of node 4", None,
    ),
    "huge-node-ids": (
        [0, 0, 1, 0], [0, 1, 1, 2],
        [CommStep(0, 0, 1, 0), CommStep(2, 1, 0, 1), CommStep(HUGE, 0, 1, 0),
         CommStep(-HUGE, 1, 0, 0)],
        f"value of node -{HUGE} is not available", None,
    ),
    "re-delivery-to-an-invalid-processor": (
        [0, 0, 1, 2], [0, 1, 1, 2],
        [CommStep(0, 0, 1, 0), CommStep(2, 1, 2, 1), CommStep(3, 2, 0, 2), CommStep(3, 0, 2, 3)],
        "re-delivers the value of node 3 to processor 2", None,
    ),
}


class TestOutOfRangeCases:
    """One hand-built schedule per way the keying of out-of-range ids can go
    wrong, on the dense and on the sparse table: each matches the seed
    walker and shows (or lacks) the message that names the case."""

    @pytest.fixture(params=["dense", "sparse"], autouse=True)
    def table(self, request, monkeypatch):
        import repro.core.validation as validation

        if request.param == "sparse":
            monkeypatch.setattr(validation, "_MAX_DENSE_CELLS", 0)

    @pytest.mark.parametrize("case", OUT_OF_RANGE_CASES)
    def test_case_matches_seed_walker(self, case):
        procs, supersteps, steps, shown, absent = OUT_OF_RANGE_CASES[case]
        machine = BspMachine.uniform(2, g=1, latency=1)
        violations = assert_same_violations(
            build_diamond_dag(), machine, procs, supersteps, steps
        )
        assert any(shown in message for message in violations)
        if absent is not None:
            assert not any(absent in message for message in violations)

    def test_truncation_across_the_passes(self):
        """Every cap cuts the same prefix of the node, comm-step and edge
        messages as the walker's."""
        procs, supersteps, steps, _, _ = OUT_OF_RANGE_CASES[
            "re-delivery-to-an-invalid-processor"
        ]
        steps = steps + [CommStep(-1, -1, HUGE, -1)]
        machine = BspMachine.uniform(2, g=1, latency=1)
        dag = build_diamond_dag()
        full = assert_same_violations(dag, machine, procs, supersteps, steps, 100)
        assert full[0].startswith("node 3") and full[-1].startswith("edge (1,3)")
        for cap in range(1, len(full) + 2):
            capped = assert_same_violations(dag, machine, procs, supersteps, steps, cap)
            assert capped == full[:cap]


def broken_once(dag, num_procs, procs, supersteps, rng):
    """``(π, τ)`` as given, then each of the four ways one change breaks it."""
    src, dst = dag.edge_arrays()
    yield "valid", procs, supersteps
    victim = int(rng.integers(0, dag.num_nodes))
    bad = procs.copy()
    bad[victim] = num_procs  # out-of-range processor
    yield "processor", bad, supersteps
    bad = supersteps.copy()
    bad[victim] = -1  # negative superstep
    yield "superstep", procs, bad
    if src.size:
        i = int(rng.integers(0, src.size))
        u, v = int(src[i]), int(dst[i])
        bad_procs, bad_steps = procs.copy(), supersteps.copy()
        bad_procs[v] = bad_procs[u]
        bad_steps[u] = bad_steps[v] + 1  # same-processor inversion
        yield "inversion", bad_procs, bad_steps
        if num_procs > 1:
            bad_procs, bad_steps = procs.copy(), supersteps.copy()
            bad_procs[v] = (bad_procs[u] + 1) % num_procs
            bad_steps[v] = bad_steps[u]  # cross-processor tie
            yield "tie", bad_procs, bad_steps


def raised(call):
    """The type of the exception ``call()`` raises, or ``None``."""
    try:
        call()
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


class TestLazyBranch:
    """``comm_schedule=None`` agrees with the Γ path run on the lazy ``Γ``."""

    @staticmethod
    def gamma_path(dag, machine, procs, supersteps):
        """Violations of the explicit lazy ``Γ``, or why it does not exist."""
        try:
            steps = sorted(lazy_comm_schedule(dag, procs, supersteps))
        except ScheduleError as exc:
            return [str(exc)]
        return schedule_violations(dag, machine, procs, supersteps, steps)

    def assert_lazy_branch_agrees(self, dag, machine, procs, supersteps):
        lazy = schedule_violations(dag, machine, procs, supersteps, None)
        assert lazy == self.gamma_path(dag, machine, procs, supersteps)
        edges = list(zip(*(ends.tolist() for ends in dag.edge_arrays())))
        gamma = lazy_gamma(edges, procs.tolist(), supersteps.tolist())
        oracle = oracle_violations(
            machine.num_procs, edges, procs.tolist(), supersteps.tolist(), gamma
        )
        assert bool(lazy) == bool(oracle)
        lazy_error = raised(lambda: validate_schedule(dag, machine, procs, supersteps, None))
        gamma_error = raised(
            lambda: validate_schedule(
                dag, machine, procs, supersteps, sorted(lazy_comm_schedule(dag, procs, supersteps))
            )
        )
        assert lazy_error is gamma_error is (ScheduleError if lazy else None)
        return lazy

    @pytest.mark.parametrize("procs_count", [1, 2, 4])
    def test_scheduler_outputs_and_single_breaks(self, procs_count):
        rng = np.random.default_rng(procs_count)
        machine = BspMachine.uniform(procs_count, g=2, latency=3)
        seen = set()
        for dag in dagdb_instances():
            for scheduler in (BspGreedyScheduler(), SourceScheduler(), CilkScheduler(0)):
                schedule = scheduler.schedule(dag, machine)
                for kind, procs, supersteps in broken_once(
                    dag, procs_count, schedule.procs.copy(), schedule.supersteps.copy(), rng
                ):
                    lazy = self.assert_lazy_branch_agrees(dag, machine, procs, supersteps)
                    assert bool(lazy) == (kind != "valid"), kind
                    seen.add(kind)
        expected = {"valid", "processor", "superstep", "inversion"}
        assert seen == (expected | {"tie"} if procs_count > 1 else expected)

    def test_random_assignments(self):
        rng = np.random.default_rng(2024)
        machine = BspMachine.uniform(3, g=1, latency=1)
        for trial in range(60):
            dag = random_dag(12, 0.2, seed=900 + trial)
            n = dag.num_nodes
            procs = rng.integers(-1 if trial % 10 == 0 else 0, 3, size=n)
            supersteps = rng.integers(-1 if trial % 5 == 0 else 0, 4, size=n)
            self.assert_lazy_branch_agrees(dag, machine, procs, supersteps)

    def test_max_violations_truncation(self):
        machine = BspMachine.uniform(2)
        dag = build_chain_dag(40)
        procs = np.zeros(40, dtype=np.int64)
        supersteps = -np.ones(40, dtype=np.int64)
        for cap in (1, 3, 20):
            lazy = schedule_violations(dag, machine, procs, supersteps, None, cap)
            assert lazy == schedule_violations(dag, machine, procs, supersteps, [], cap)
            assert len(lazy) == cap


class TestRedundantDeliveryRegression:
    """Satellite bugfix: the seed's dead 'communication schedule sanity' block.

    The seed built the arrivals dict, computed ``key``/``arrival`` and then
    did nothing — duplicate and too-early deliveries slipped through
    validation silently.  They must be reported now.
    """

    def test_duplicate_delivery_is_reported(self):
        machine = BspMachine.uniform(2, g=1, latency=1)
        dag = build_chain_dag(2)
        steps = [CommStep(0, 0, 1, 0), CommStep(0, 0, 1, 1)]
        violations = schedule_violations(
            dag, machine, np.array([0, 1]), np.array([0, 3]), steps
        )
        assert any("re-delivers" in v for v in violations)

    def test_identical_arrival_duplicates_flag_each_other(self):
        machine = BspMachine.uniform(3, g=1, latency=1)
        dag = build_chain_dag(2)
        # the same value reaches processor 2 twice in the same phase
        steps = [
            CommStep(0, 0, 1, 0),
            CommStep(0, 0, 2, 1),
            CommStep(0, 1, 2, 1),
        ]
        violations = schedule_violations(
            dag, machine, np.array([0, 2]), np.array([0, 3]), steps, max_violations=50
        )
        assert sum("re-delivers" in v for v in violations) == 2

    def test_loop_back_to_computing_processor_is_reported(self):
        machine = BspMachine.uniform(2, g=1, latency=1)
        dag = build_chain_dag(2)
        steps = [CommStep(0, 0, 1, 0), CommStep(0, 1, 0, 1)]
        violations = schedule_violations(
            dag, machine, np.array([0, 1]), np.array([0, 2]), steps
        )
        assert any("re-delivers" in v for v in violations)

    def test_distinct_targets_are_not_redundant(self):
        machine = BspMachine.uniform(3, g=1, latency=1)
        dag = build_chain_dag(2)
        steps = [CommStep(0, 0, 1, 0), CommStep(0, 1, 2, 1)]
        violations = schedule_violations(
            dag, machine, np.array([0, 2]), np.array([0, 3]), steps
        )
        assert violations == []


class TestSparseAvailabilityTable:
    """Satellite: above the dense cell ceiling the sparse unique-key table
    must produce bit-identical messages (previously those instances fell
    back to the pure-Python reference walker)."""

    @pytest.fixture(autouse=True)
    def force_sparse(self, monkeypatch):
        import repro.core.validation as validation

        monkeypatch.setattr(validation, "_MAX_DENSE_CELLS", 0)

    def test_valid_scheduler_outputs_stay_clean(self):
        machine = BspMachine.uniform(4, g=2, latency=3)
        for dag in dagdb_instances():
            schedule = BspGreedyScheduler().schedule(dag, machine)
            steps = sorted(schedule.comm_schedule)
            violations = assert_same_violations(
                dag, machine, schedule.procs, schedule.supersteps, steps
            )
            assert violations == []

    def test_forwarding_chain_sparse(self):
        machine = BspMachine.uniform(4, g=1, latency=1)
        dag = build_chain_dag(2)
        procs = np.array([0, 3])
        supersteps = np.array([0, 4])
        chain = [CommStep(0, 0, 1, 0), CommStep(0, 1, 2, 1), CommStep(0, 2, 3, 2)]
        assert assert_same_violations(dag, machine, procs, supersteps, chain) == []
        for drop in range(3):
            broken = [s for i, s in enumerate(chain) if i != drop]
            assert assert_same_violations(dag, machine, procs, supersteps, broken)

    def test_randomized_sparse(self):
        rng = np.random.default_rng(1234)
        machine = BspMachine.uniform(3, g=1, latency=1)
        for trial in range(30):
            dag = random_dag(12, 0.2, seed=500 + trial)
            n = dag.num_nodes
            procs = rng.integers(0, 3, size=n)
            supersteps = rng.integers(-1, 4, size=n)
            steps = [
                CommStep(
                    int(rng.integers(0, n)),
                    int(rng.integers(0, 3)),
                    int(rng.integers(0, 3)),
                    int(rng.integers(-1, 4)),
                )
                for _ in range(int(rng.integers(0, 10)))
            ]
            assert_same_violations(dag, machine, procs, supersteps, steps)


class TestConversionArgmaxSatellite:
    """Satellite: the repeated-argmax bump search equals the linear sweep."""

    def test_bump_positions_fuzz(self):
        from repro.core.classical import (
            _superstep_bumps_argmax,
            _superstep_bumps_sweep,
        )

        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(0, 150))
            bound = rng.integers(-1, max(n, 1), size=n)
            assert _superstep_bumps_argmax(bound).tolist() == _superstep_bumps_sweep(
                bound
            )

    def test_fragmented_schedule_hits_sweep_fallback(self):
        # every position bumps: the probe budget is exhausted and the sweep
        # tail must take over seamlessly
        from repro.core.classical import (
            _superstep_bumps_argmax,
            _superstep_bumps_sweep,
        )

        n = 5000
        bound = np.arange(n) - 1
        bound[0] = 0  # bump at every position including the first
        assert _superstep_bumps_argmax(bound).tolist() == _superstep_bumps_sweep(bound)


class TestClassicalConversionDifferential:
    def convert_both(self, dag, num_procs, procs, start_times):
        classical = ClassicalSchedule(
            dag, num_procs=num_procs, procs=procs, start_times=start_times
        )
        machine = BspMachine.uniform(num_procs, g=1, latency=1)
        schedule = classical_to_bsp(classical, machine)
        src, dst = dag.edge_arrays()
        _, pred = adjacency_from_edges(
            dag.num_nodes, list(zip(src.tolist(), dst.tolist()))
        )
        expected = classical_to_bsp_ref(pred, procs.tolist(), start_times.tolist())
        assert schedule.supersteps.tolist() == expected
        return schedule

    def test_baseline_classical_schedules(self):
        for dag in dagdb_instances():
            for num_procs in (1, 2, 4):
                classical = CilkScheduler(seed=1).classical_schedule(dag, num_procs)
                self.convert_both(
                    dag, num_procs, classical.procs, classical.start_times
                )

    def test_start_time_ties_break_by_node_id(self):
        dag = build_paper_example_dag()
        procs = np.arange(dag.num_nodes, dtype=np.int64) % 3
        start_times = dag.levels().astype(np.float64)  # heavy ties inside layers
        self.convert_both(dag, 3, procs, start_times)

    def test_single_processor_stays_one_superstep(self):
        dag = random_dag(30, 0.1, seed=5)
        classical = CilkScheduler(seed=0).classical_schedule(dag, 1)
        schedule = self.convert_both(dag, 1, classical.procs, classical.start_times)
        assert schedule.num_supersteps == 1


class TestClassicalScheduleSatellite:
    """Satellite bugfix: finish_times typing and the vectorized validate."""

    def test_finish_times_annotation_allows_none(self):
        import typing

        hints = typing.get_type_hints(ClassicalSchedule)
        assert hints["finish_times"] == (np.ndarray | None)

    def test_validate_vectorized_matches_loop_semantics(self):
        rng = np.random.default_rng(11)
        dag = random_dag(18, 0.2, seed=9)
        classical = CilkScheduler(seed=2).classical_schedule(dag, 3)
        classical.validate()  # a real schedule passes
        # shifting one node's start earlier must trip exactly one of the checks
        bad_start = classical.start_times.copy()
        victim = int(rng.integers(0, dag.num_nodes))
        bad_start[victim] -= dag.work_weights.max() + 1.0
        broken = ClassicalSchedule(
            dag, num_procs=3, procs=classical.procs, start_times=bad_start
        )
        from repro.core import ScheduleError

        with pytest.raises(ScheduleError):
            broken.validate()

    def test_validate_overlap_message_names_processor(self):
        from repro.core import ScheduleError

        dag = build_diamond_dag()
        classical = ClassicalSchedule(
            dag,
            num_procs=1,
            procs=np.zeros(4, dtype=np.int64),
            start_times=np.array([0.0, 1.0, 1.5, 3.0]),  # 1 and 2 are independent
        )
        with pytest.raises(ScheduleError, match="overlap in time on processor 0"):
            classical.validate()
