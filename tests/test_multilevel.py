"""Unit tests for DAG coarsening and the multilevel scheduler."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import ScheduleRequest, SchedulerSpec, SchedulingService
from repro.core import BspMachine, BspSchedule, ComputationalDAG, DagError, kernels
from repro.core.exceptions import ConfigurationError
from repro.core.machine import MachineSpec
from repro.schedulers import (
    BspGreedyScheduler,
    HillClimbingImprover,
    LazyCostTracker,
    MultilevelScheduler,
    PipelineConfig,
    SchedulingPipeline,
)
from repro.schedulers.hill_climbing import CONVERGED, STEP_CAP
from repro.schedulers.multilevel import (
    ContractionRecord,
    coarsen_dag,
    coarsen_dag_reference,
    project_to_original,
    restrict_to_quotient,
)

from conftest import assert_valid_schedule, build_chain_dag, build_diamond_dag, random_dag
from oracles.multilevel import multilevel_reference
from repro.dagdb import (
    SparseMatrixPattern,
    build_cg_dag,
    build_elimination_dag,
    build_fft_dag,
    build_stencil2d_dag,
)


class TestCoarsening:
    def test_coarsens_to_target_size(self):
        dag = random_dag(40, 0.12, seed=1)
        sequence = coarsen_dag(dag, target_nodes=10)
        quotient = sequence.quotient()
        assert quotient.dag.num_nodes <= 12
        assert sequence.num_contractions == dag.num_nodes - quotient.dag.num_nodes

    def test_quotient_remains_acyclic_at_every_level(self):
        dag = random_dag(30, 0.15, seed=2)
        sequence = coarsen_dag(dag, target_nodes=5)
        for level in range(0, sequence.num_contractions + 1, 5):
            assert sequence.quotient(level).dag.is_acyclic()

    def test_weights_are_conserved(self):
        dag = random_dag(25, 0.15, seed=3)
        sequence = coarsen_dag(dag, target_nodes=6)
        quotient = sequence.quotient()
        assert quotient.dag.total_work == pytest.approx(dag.total_work)
        assert quotient.dag.total_comm == pytest.approx(dag.total_comm)

    def test_zero_contractions_is_identity(self):
        dag = build_diamond_dag()
        sequence = coarsen_dag(dag, target_nodes=dag.num_nodes)
        assert sequence.num_contractions == 0
        quotient = sequence.quotient()
        assert quotient.dag.num_nodes == dag.num_nodes
        assert quotient.dag.num_edges == dag.num_edges

    def test_chain_coarsens_fully(self):
        dag = build_chain_dag(10)
        sequence = coarsen_dag(dag, target_nodes=1)
        assert sequence.quotient().dag.num_nodes == 1

    def test_contraction_prefers_light_nodes_with_heavy_outputs(self):
        """The selection rule merges the light/heavy-output edge first."""
        dag = ComputationalDAG(4, [1, 1, 10, 10], [9, 1, 1, 1])
        dag.add_edge(0, 1)   # light nodes, source with heavy output
        dag.add_edge(2, 3)   # heavy nodes
        sequence = coarsen_dag(dag, target_nodes=3)
        assert sequence.num_contractions == 1
        record = sequence.records[0]
        assert (record.kept, record.removed) == (0, 1)

    def test_contraction_never_creates_cycles(self):
        """Edge (u,v) with an alternative u->v path must not be contracted first."""
        dag = ComputationalDAG(3)
        dag.add_edge(0, 1)
        dag.add_edge(1, 2)
        dag.add_edge(0, 2)  # transitive edge: contracting it would create a cycle
        sequence = coarsen_dag(dag, target_nodes=2)
        quotient = sequence.quotient()
        assert quotient.dag.is_acyclic()

    def test_representative_map_bounds(self):
        dag = build_chain_dag(5)
        sequence = coarsen_dag(dag, target_nodes=2)
        with pytest.raises(DagError):
            sequence.representative_map(sequence.num_contractions + 1)
        assert list(sequence.representative_map(0)) == list(range(5))

    def test_target_validation(self):
        with pytest.raises(DagError):
            coarsen_dag(build_chain_dag(3), target_nodes=0)

    def test_disconnected_graph_stops_at_no_edges(self):
        dag = ComputationalDAG(4)  # no edges at all
        sequence = coarsen_dag(dag, target_nodes=1)
        assert sequence.quotient().dag.num_nodes == 4


class TestCoarseningPrefix:
    """A larger target's contraction sequence is a prefix of a smaller one's.

    The multilevel scheduler coarsens once, to its smallest target, and
    hands every ratio a prefix of that sequence; these pin the property.
    """

    @staticmethod
    def assert_prefix(dag: ComputationalDAG, targets) -> None:
        n = dag.num_nodes
        smallest = coarsen_dag(dag, target_nodes=min(targets))
        for target in targets:
            alone = coarsen_dag(dag, target_nodes=target)
            assert alone.records == smallest.records[: max(0, n - target)], target

    def test_random_dags(self):
        for seed in range(32):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(12, 60))
            dag = random_dag(n, float(rng.uniform(0.04, 0.3)), seed=500 + seed)
            targets = sorted({int(t) for t in rng.integers(1, n + 2, size=3)})
            self.assert_prefix(dag, targets + [max(2, round(0.3 * n)), max(2, round(0.15 * n))])

    @pytest.mark.parametrize(
        "dag",
        [
            build_fft_dag(16, track_roles=False).dag,
            build_stencil2d_dag(6, 3, track_roles=False).dag,
            build_elimination_dag(SparseMatrixPattern.banded(150, 4), track_roles=False).dag,
        ],
        ids=["fft", "stencil2d", "cholesky"],
    )
    def test_structured_dags(self, dag):
        n = dag.num_nodes
        self.assert_prefix(dag, [max(2, round(0.3 * n)), max(2, round(0.15 * n)), 2])

    def test_coarsening_that_stops_early(self):
        # a 6-chain plus 10 isolated nodes: 5 contractions, then no edge left
        dag = ComputationalDAG(16)
        for v in range(5):
            dag.add_edge(v, v + 1)
        full = coarsen_dag(dag, target_nodes=2)
        assert full.num_contractions == 5 < dag.num_nodes - 2
        self.assert_prefix(dag, [16, 12, 11, 10, 8, 2])


class TestBucketQueueCoarsening:
    """The bucketed lazy priority structure vs the retained seed coarsener."""

    def test_identical_records_on_distinct_buckets(self):
        """With almost-surely distinct merged work weights every bucket is a
        singleton, so the whole-bucket tie rule coincides with the seed's
        cutoff, and on an out-tree every edge is contractable, so the (by
        design different) fallback order never engages: both implementations
        must produce identical histories."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 40
            dag = ComputationalDAG(
                n,
                work_weights=rng.random(n) + 0.5,
                comm_weights=rng.random(n) + 0.5,
            )
            for child in range(1, n):
                dag.add_edge(int(rng.integers(0, child)), child)
            fast = coarsen_dag(dag, target_nodes=5)
            slow = coarsen_dag_reference(dag, target_nodes=5)
            assert fast.records == slow.records

    def test_same_progress_as_reference_on_integer_weights(self):
        for seed in range(4):
            dag = random_dag(30, 0.12, seed=80 + seed)
            fast = coarsen_dag(dag, target_nodes=8)
            slow = coarsen_dag_reference(dag, target_nodes=8)
            assert fast.num_contractions == slow.num_contractions
            assert fast.quotient().dag.is_acyclic()
            assert fast.quotient().dag.total_work == pytest.approx(dag.total_work)

    def test_fallback_uses_comm_weight_order(self):
        """Satellite bugfix: when the light third has no contractable edge the
        fallback follows the paper's largest-c(u) rule, not ascending work.

        Edge (0, 1) is the lightest but transitive (0 -> 2 -> 1 exists), so
        selection falls through to the two heavier edges; the source with the
        larger communication weight (node 2) must win even though the seed's
        work-then-edge-id order would have picked (0, 2) first.
        """
        dag = ComputationalDAG(3, work_weights=[1, 1, 10], comm_weights=[1, 1, 5])
        dag.add_edge(0, 2)
        dag.add_edge(2, 1)
        dag.add_edge(0, 1)  # transitive, merged work 2: the whole light third
        sequence = coarsen_dag(dag, target_nodes=2)
        assert sequence.records[0] == ContractionRecord(kept=2, removed=1)
        # the seed picked the first heavier edge in work order instead
        seed_sequence = coarsen_dag_reference(dag, target_nodes=2)
        assert seed_sequence.records[0] == ContractionRecord(kept=0, removed=2)

    def test_search_budget_is_conservative_but_safe(self):
        dag = random_dag(40, 0.15, seed=13)
        exact = coarsen_dag(dag, target_nodes=10)
        budgeted = coarsen_dag(dag, target_nodes=10, search_budget=2)
        assert budgeted.num_contractions <= exact.num_contractions
        assert budgeted.quotient().dag.is_acyclic()
        for level in range(0, budgeted.num_contractions + 1, 7):
            assert budgeted.quotient(level).dag.is_acyclic()

    def test_zero_budget_still_contracts_via_fast_paths(self):
        # a chain needs no DFS at all: u is always v's only predecessor
        dag = build_chain_dag(12)
        sequence = coarsen_dag(dag, target_nodes=1, search_budget=0)
        assert sequence.quotient().dag.num_nodes == 1


class TestPearceKellyCoarsening:
    """The PK dynamic-order path is decision-identical to the exact DFS."""

    def test_pk_and_dfs_identical_records(self):
        for seed in range(8):
            dag = random_dag(60, 0.1, seed=400 + seed)
            dfs = coarsen_dag(dag, target_nodes=12, method="dfs")
            pk = coarsen_dag(dag, target_nodes=12, method="pk")
            auto = coarsen_dag(dag, target_nodes=12)
            assert pk.records == dfs.records, seed
            assert auto.records == dfs.records, seed
            assert pk.quotient().dag.is_acyclic()

    def test_auto_with_budget_uses_dfs(self):
        # search_budget is a DFS-node budget, so auto must route to DFS
        dag = random_dag(40, 0.15, seed=13)
        budgeted = coarsen_dag(dag, target_nodes=10, search_budget=2)
        auto = coarsen_dag(dag, target_nodes=10, search_budget=2, method="auto")
        assert auto.records == budgeted.records

    def test_unknown_method_rejected(self):
        dag = build_chain_dag(6)
        with pytest.raises(DagError, match="unknown coarsening method"):
            coarsen_dag(dag, target_nodes=2, method="bogus")

    def test_pk_with_search_budget_rejected(self):
        dag = build_chain_dag(6)
        with pytest.raises(DagError, match="search_budget"):
            coarsen_dag(dag, target_nodes=2, search_budget=8, method="pk")

    def test_pk_dense_dag_stays_acyclic_at_every_level(self):
        dag = random_dag(50, 0.35, seed=91)
        sequence = coarsen_dag(dag, target_nodes=5, method="pk")
        for level in range(0, sequence.num_contractions + 1, 5):
            assert sequence.quotient(level).dag.is_acyclic()

    def test_rejected_edge_is_never_probed_again(self, monkeypatch):
        """An exact rejection is final until a contraction merges an endpoint.

        Every ``pk_order`` probe is logged with the number of contractions
        each endpoint has absorbed so far; no (edge, endpoint versions)
        pair may be probed twice.  The records stay those of a queue that
        re-probes every rejected edge: a DFS budget no probe can exhaust
        keeps the verdicts exact but restores rejected entries.
        """
        from repro.schedulers.multilevel import coarsen as coarsen_module

        events: list[tuple[str, int, int, int]] = []
        probe = kernels.pk_order
        contract = coarsen_module._FlatGraph.contract

        def recording_probe(graph, mode, u, v):
            found = probe(graph, mode, u, v)
            if mode == 0:
                events.append(("probe", u, v, found))
            return found

        def recording_contract(graph, u, v):
            events.append(("merge", u, v, 0))
            return contract(graph, u, v)

        monkeypatch.setattr(kernels, "pk_order", recording_probe)
        monkeypatch.setattr(coarsen_module._FlatGraph, "contract", recording_contract)
        rejected = 0
        for seed in range(4):
            dag = random_dag(60, 0.15, seed=500 + seed)
            events.clear()
            pk = coarsen_dag(dag, target_nodes=8)
            merges = dict.fromkeys(range(dag.num_nodes), 0)
            probed: set[tuple[int, int, int, int]] = set()
            for kind, u, v, found in events:
                if kind == "merge":
                    merges[u] += 1
                    continue
                key = (u, v, merges[u], merges[v])
                assert key not in probed, (seed, key)
                probed.add(key)
                rejected += found != 0
            reprobing = coarsen_dag(dag, target_nodes=8, search_budget=2 * dag.num_nodes)
            assert pk.records == reprobing.records
        assert rejected > 0


class TestProjection:
    def test_project_and_restrict_roundtrip(self):
        dag = random_dag(30, 0.15, seed=5)
        machine = BspMachine.uniform(4, g=1, latency=2)
        sequence = coarsen_dag(dag, target_nodes=8)
        quotient = sequence.quotient()
        coarse_schedule = BspGreedyScheduler().schedule(quotient.dag, machine)
        procs, steps = project_to_original(quotient, coarse_schedule)
        projected = BspSchedule(dag, machine, procs, steps)
        assert_valid_schedule(projected)
        # restricting back to the quotient reproduces the coarse assignment
        back = restrict_to_quotient(quotient, machine, procs, steps)
        assert np.array_equal(back.procs, coarse_schedule.procs)
        assert np.array_equal(back.supersteps, coarse_schedule.supersteps)

    def test_projection_valid_at_intermediate_levels(self):
        dag = random_dag(25, 0.2, seed=6)
        machine = BspMachine.uniform(2, g=1, latency=1)
        sequence = coarsen_dag(dag, target_nodes=6)
        full_quotient = sequence.quotient()
        coarse_schedule = BspGreedyScheduler().schedule(full_quotient.dag, machine)
        procs, steps = project_to_original(full_quotient, coarse_schedule)
        # at every intermediate level the cluster-constant assignment is valid
        for level in range(0, sequence.num_contractions + 1, 4):
            quotient = sequence.quotient(level)
            restricted = restrict_to_quotient(quotient, machine, procs, steps)
            assert_valid_schedule(restricted)


class TestMultilevelScheduler:
    @pytest.mark.slow
    def test_valid_schedule_on_original_dag(self):
        dag = build_cg_dag(
            SparseMatrixPattern.random(5, 0.35, seed=4, ensure_diagonal=True), 2
        ).dag
        machine = BspMachine.numa_hierarchy(8, delta=4, g=1, latency=5)
        scheduler = MultilevelScheduler(base_scheduler=BspGreedyScheduler())
        schedule = scheduler.schedule(dag, machine)
        assert schedule.dag is dag
        assert_valid_schedule(schedule)

    def test_small_instances_fall_back_to_base(self):
        dag = build_diamond_dag()
        machine = BspMachine.uniform(2, g=1, latency=1)
        scheduler = MultilevelScheduler(base_scheduler=BspGreedyScheduler(), min_nodes=16)
        base = BspGreedyScheduler().schedule(dag, machine)
        schedule = scheduler.schedule(dag, machine)
        assert schedule.cost() == pytest.approx(base.cost())

    @pytest.mark.slow
    def test_competitive_with_trivial_when_communication_dominates(self):
        """§7.3: with huge NUMA costs ML stays close to the trivial schedule's cost
        (the paper reports it beats it in all but a handful of cases) while the
        conventional baselines blow up by integer factors."""
        dag = build_cg_dag(
            SparseMatrixPattern.random(6, 0.3, seed=1, ensure_diagonal=True), 3
        ).dag
        machine = BspMachine.numa_hierarchy(8, delta=4, g=1, latency=5)
        scheduler = MultilevelScheduler(base_scheduler=BspGreedyScheduler())
        schedule = scheduler.schedule(dag, machine)
        trivial_cost = BspSchedule.trivial(dag, machine).cost()
        from repro.schedulers import CilkScheduler, HDaggScheduler

        cilk_cost = CilkScheduler(seed=0).schedule(dag, machine).cost()
        hdagg_cost = HDaggScheduler().schedule(dag, machine).cost()
        assert schedule.cost() <= 1.25 * trivial_cost
        assert schedule.cost() < 0.75 * hdagg_cost
        assert schedule.cost() < 0.5 * cilk_cost

    def test_single_ratio_configuration(self):
        dag = random_dag(40, 0.1, seed=9)
        machine = BspMachine.numa_hierarchy(4, delta=3, g=1, latency=3)
        scheduler = MultilevelScheduler(
            base_scheduler=BspGreedyScheduler(), coarsening_ratios=(0.3,)
        )
        assert_valid_schedule(scheduler.schedule(dag, machine))


class TestMultilevelBudget:
    def test_work_caps_reach_every_stage(self, monkeypatch):
        """Budget splits keep the caps: every MILP and HC burst sees them."""
        from repro.api import Budget, ScheduleRequest, SchedulerSpec, SchedulingService
        from repro.core.machine import MachineSpec
        from repro.schedulers import HillClimbingImprover, MilpProblem

        node_limits, step_caps = [], []
        solve, climb = MilpProblem.solve, HillClimbingImprover.climb

        def recording_solve(self, *args, **kwargs):
            node_limits.append(kwargs.get("node_limit"))
            return solve(self, *args, **kwargs)

        def recording_climb(self, tracker, budget=None, **kwargs):
            step_caps.append(budget.max_steps)
            return climb(self, tracker, budget, **kwargs)

        monkeypatch.setattr(MilpProblem, "solve", recording_solve)
        monkeypatch.setattr(HillClimbingImprover, "climb", recording_climb)
        config = {
            "use_ilp": True,
            "use_comm_ilp": True,
            "local_search_seconds": 2.0,
            "ilp_full_seconds": 2.0,
            "ilp_partial_seconds": 1.0,
            "ilp_comm_seconds": 1.0,
            "ilp_init_seconds": 1.0,
        }
        request = ScheduleRequest(
            dag=random_dag(36, 0.12, seed=4),
            machine=MachineSpec(num_procs=2, g=2, latency=3),
            scheduler=SchedulerSpec("multilevel", {"config": config}),
            budget=Budget(seconds=None, max_steps=7, ilp_node_limit=1),
        )
        result = SchedulingService(cache_size=0).solve(request)
        assert_valid_schedule(result.to_schedule())
        assert node_limits and step_caps
        assert node_limits == [1] * len(node_limits)
        assert step_caps == [7] * len(step_caps)


def _deterministic_pipeline() -> SchedulingPipeline:
    return SchedulingPipeline(
        PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=None)
    )


class TestMultilevelOracle:
    """One shared coarsening gives the per-ratio path's schedules exactly."""

    MACHINES = (
        BspMachine.uniform(4, g=3, latency=5),
        BspMachine.numa_hierarchy(8, delta=4, g=2, latency=10),
    )

    @pytest.mark.parametrize("machine", MACHINES, ids=["uniform", "numa"])
    def test_matches_per_ratio_coarsening(self, machine):
        for seed in range(6):
            rng = np.random.default_rng(700 + seed)
            dag = random_dag(
                int(rng.integers(30, 70)), float(rng.uniform(0.05, 0.15)), seed=700 + seed
            )
            base = BspGreedyScheduler() if seed % 2 else _deterministic_pipeline()
            scheduler = MultilevelScheduler(base_scheduler=base, refine_max_steps=20)
            got = scheduler.schedule(dag, machine)
            expected = multilevel_reference(scheduler, dag, machine)
            assert np.array_equal(got.procs, expected.procs), seed
            assert np.array_equal(got.supersteps, expected.supersteps), seed

    @pytest.mark.parametrize(
        "ratios", [(0.15, 0.3), (1.0, 0.2), (0.5, 0.3, 0.1), (0.3,)]
    )
    def test_matches_for_any_ratio_tuple(self, ratios):
        dag = random_dag(48, 0.08, seed=33)
        machine = self.MACHINES[1]
        scheduler = MultilevelScheduler(
            base_scheduler=BspGreedyScheduler(), coarsening_ratios=ratios
        )
        got = scheduler.schedule(dag, machine)
        expected = multilevel_reference(scheduler, dag, machine)
        assert np.array_equal(got.procs, expected.procs)
        assert np.array_equal(got.supersteps, expected.supersteps)

    def test_coarsens_once_per_solve(self, monkeypatch):
        from repro.schedulers.multilevel import scheduler as ml_scheduler

        targets = []
        coarsen = ml_scheduler.coarsen_dag

        def recording(dag, target_nodes, **kwargs):
            targets.append(target_nodes)
            return coarsen(dag, target_nodes, **kwargs)

        monkeypatch.setattr(ml_scheduler, "coarsen_dag", recording)
        dag = random_dag(40, 0.1, seed=9)
        MultilevelScheduler(base_scheduler=BspGreedyScheduler()).schedule(
            dag, self.MACHINES[0]
        )
        assert targets == [6]  # round(0.15 * 40)


class TestLockstepWalk:
    """The ratios' lockstep walk gives each ratio its own walk, so the oracle's schedule."""

    @staticmethod
    def _record_bursts(monkeypatch) -> list[tuple[int, list[int] | None, list]]:
        """``(copies held, copies climbing, stop reasons)`` of every refinement burst."""
        bursts = []
        refine = HillClimbingImprover.refine_assignment

        def recording(self, dag, machine, procs, supersteps, budget=None, tracker=None,
                      hand_off=None, copies=None):
            result = refine(
                self, dag, machine, procs, supersteps, budget, tracker, hand_off, copies
            )
            held = result[0].num_copies
            bursts.append((held, None if copies is None else list(copies), self.copy_stops))
            return result

        monkeypatch.setattr(HillClimbingImprover, "refine_assignment", recording)
        return bursts

    def _assert_matches_oracle(self, scheduler, dag, machine):
        got = scheduler.schedule(dag, machine)
        expected = multilevel_reference(scheduler, dag, machine)
        assert np.array_equal(got.procs, expected.procs)
        assert np.array_equal(got.supersteps, expected.supersteps)

    def test_ratio_out_of_levels_leaves_the_walk(self, monkeypatch):
        """The coarser ratio runs out of levels first; the finer one walks on alone."""
        bursts = self._record_bursts(monkeypatch)
        dag = random_dag(60, 0.07, seed=3)
        machine = BspMachine.numa_hierarchy(4, delta=3, g=3, latency=5)
        scheduler = MultilevelScheduler(base_scheduler=BspGreedyScheduler(), refine_max_steps=5)
        scheduler.schedule(dag, machine)
        held = [copies for copies, _, _ in bursts]
        assert held[0] == 2 and held[-1] == 1
        assert held == sorted(held, reverse=True)
        self._assert_matches_oracle(scheduler, dag, machine)

    def test_second_rounds_run_per_copy(self, monkeypatch):
        """With two rounds, a copy at its step cap climbs again while a converged one rests."""
        bursts = self._record_bursts(monkeypatch)
        dag = random_dag(60, 0.07, seed=1)
        machine = BspMachine.numa_hierarchy(4, delta=3, g=3, latency=5)
        scheduler = MultilevelScheduler(
            base_scheduler=BspGreedyScheduler(), refine_max_steps=3, refine_rounds=2
        )
        scheduler.schedule(dag, machine)
        alone = [
            (first, second)
            for first, second in zip(bursts, bursts[1:])
            if first[0] == 2 and set(first[2]) == {STEP_CAP, CONVERGED} and second[0] == 2
        ]
        assert alone
        for (_, _, stops), (_, copies, again) in alone:
            assert copies == [stops.index(STEP_CAP)]
            assert again[stops.index(CONVERGED)] is None  # the converged copy rested
        self._assert_matches_oracle(scheduler, dag, machine)


def _weighted_dag(rng: np.random.Generator, weights: str) -> ComputationalDAG:
    """A random DAG of 40-90 nodes with integer, dyadic or real weights."""
    n = int(rng.integers(40, 91))
    if weights == "integer":
        work, comm = rng.integers(1, 6, n).astype(float), rng.integers(1, 4, n).astype(float)
    elif weights == "dyadic":
        work, comm = rng.integers(1, 41, n) / 8, rng.integers(0, 25, n) / 8
    else:
        work, comm = rng.uniform(0.1, 5.0, n), rng.uniform(0.0, 3.0, n)
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < rng.uniform(0.03, 0.1), 1))
    return ComputationalDAG.from_edge_arrays(n, src, dst, work, comm)


class TestLevelHandOff:
    """A converged level's verdict saves scoring but never changes a move."""

    MACHINES = {
        "uniform": lambda rng: BspMachine.uniform(
            int(rng.choice([2, 4, 8])), g=int(rng.integers(1, 6)), latency=int(rng.integers(1, 20))
        ),
        "numa": lambda rng: BspMachine.numa_hierarchy(
            int(rng.choice([4, 8])),
            delta=int(rng.integers(2, 5)),
            g=int(rng.integers(1, 6)),
            latency=int(rng.integers(1, 20)),
        ),
    }

    @pytest.mark.parametrize("machine_kind", ["uniform", "numa"])
    @pytest.mark.parametrize("weights", ["integer", "dyadic", "real"])
    def test_masked_bursts_accept_the_full_scan_moves(self, monkeypatch, weights, machine_kind):
        """Every copy a joint burst gives a hand-off is replayed from its start without one."""
        refine = HillClimbingImprover.refine_assignment
        run_pass = kernels.hc_pass
        counts = {"hand_offs": 0, "joint": 0, "masked_passes": 0}

        def replayed(self, dag, machine, procs, supersteps, budget=None, tracker=None,
                     hand_off=None, copies=None):
            if hand_off is None:
                return refine(self, dag, machine, procs, supersteps, budget, tracker,
                              copies=copies)
            given = [t for t, verdict in enumerate(hand_off[1]) if verdict is not None]
            counts["hand_offs"] += len(given)
            counts["joint"] += len(hand_off[1]) > 1
            full = HillClimbingImprover(self.max_passes, self.max_steps, record_moves=True)
            full_tracker, _ = full.refine_assignment(
                dag, machine, procs, supersteps, budget, copies=copies
            )
            self.record_moves = True
            try:
                result = refine(
                    self, dag, machine, procs, supersteps, budget, tracker, hand_off, copies
                )
            finally:
                self.record_moves = False
            for t in given:
                assert self.copy_moves[t] == full.copy_moves[t], t
                assert self.copy_stops[t] == full.copy_stops[t], t
            assert np.array_equal(result[0].procs, full_tracker.procs)
            assert np.array_equal(result[0].supersteps, full_tracker.supersteps)
            return result

        def counting(*args, skip=None, **kwargs):
            counts["masked_passes"] += skip is not None
            return run_pass(*args, skip=skip, **kwargs)

        monkeypatch.setattr(HillClimbingImprover, "refine_assignment", replayed)
        monkeypatch.setattr(kernels, "hc_pass", counting)
        for seed in range(4):
            rng = np.random.default_rng(3100 + seed)
            dag = _weighted_dag(rng, weights)
            machine = self.MACHINES[machine_kind](rng)
            base = BspGreedyScheduler() if seed % 2 else _deterministic_pipeline()
            scheduler = MultilevelScheduler(
                base_scheduler=base,
                refine_max_steps=int(rng.choice([2, 5, 100])),
                refine_rounds=int(rng.choice([1, 2])),
            )
            assert_valid_schedule(scheduler.schedule(dag, machine))
        assert counts["hand_offs"] > 0
        assert counts["joint"] > 0
        assert counts["masked_passes"] > 0

    def test_hand_off_needs_equal_work_and_traffic(self):
        """A verdict from another state is ignored; from an equal one it is used."""
        dag = random_dag(40, 0.1, seed=5)
        machine = BspMachine.numa_hierarchy(4, delta=3, g=2, latency=5)
        start = BspGreedyScheduler().schedule(dag, machine)
        procs, steps = start.procs, start.supersteps
        full = HillClimbingImprover(record_moves=True)
        full.refine_assignment(dag, machine, procs, steps)
        assert full.last_moves
        everything = [(0, np.ones(dag.num_nodes, dtype=bool))]  # copy 0: no node changed
        for rows in ("work", "traffic"):
            previous = LazyCostTracker(dag, machine, procs, steps)
            getattr(previous, rows)[0, 0] += 1.0
            improver = HillClimbingImprover(record_moves=True)
            improver.refine_assignment(dag, machine, procs, steps, hand_off=(previous, everything))
            assert improver.last_moves == full.last_moves, rows
        # equal rows: the (here false) verdict is taken on trust
        previous = LazyCostTracker(dag, machine, procs, steps)
        improver = HillClimbingImprover(record_moves=True)
        improver.refine_assignment(dag, machine, procs, steps, hand_off=(previous, everything))
        assert improver.last_moves == []
        assert improver.last_stop == CONVERGED

        # a joint burst checks each copy against its own previous copy:
        # only the copy whose rows equal that copy's skips
        dags = [dag, random_dag(30, 0.12, seed=6)]
        starts = [BspGreedyScheduler().schedule(d, machine) for d in dags]
        procs = [start.procs for start in starts]
        steps = [start.supersteps for start in starts]
        full = HillClimbingImprover(record_moves=True)
        full.refine_assignment(dags, machine, procs, steps)
        assert all(full.copy_moves)
        # the previous round held the copies in the other order
        previous = LazyCostTracker(dags[::-1], machine, procs[::-1], steps[::-1])
        verdicts = [(1, np.ones(dags[0].num_nodes, dtype=bool))]
        verdicts.append((0, np.ones(dags[1].num_nodes, dtype=bool)))
        for rows in ("work", "traffic"):
            changed = LazyCostTracker(dags[::-1], machine, procs[::-1], steps[::-1])
            # a row of the previous copy of dags[0] differs
            getattr(changed, rows)[
                (changed.step_offsets[1], 0) if rows == "work" else (0, changed.step_offsets[1])
            ] += 1.0
            improver = HillClimbingImprover(record_moves=True)
            improver.refine_assignment(dags, machine, procs, steps, hand_off=(changed, verdicts))
            assert improver.copy_moves[0] == full.copy_moves[0], rows
            assert improver.copy_moves[1] == [], rows
            assert improver.copy_stops[1] == CONVERGED, rows
        improver = HillClimbingImprover(record_moves=True)
        improver.refine_assignment(dags, machine, procs, steps, hand_off=(previous, verdicts))
        assert improver.copy_moves == [[], []]
        # a copy without a verdict climbs in full
        improver.refine_assignment(
            dags, machine, procs, steps, hand_off=(previous, [None, verdicts[1]])
        )
        assert improver.copy_moves == [full.copy_moves[0], []]

    def test_converged_burst_ends_the_level(self, monkeypatch):
        """A second round runs only after a burst stopped at its step cap."""
        passes = []
        run_pass = kernels.hc_pass

        def counting(*args, **kwargs):
            passes.append(1)
            return run_pass(*args, **kwargs)

        monkeypatch.setattr(kernels, "hc_pass", counting)
        dag = random_dag(80, 0.06, seed=21)
        machine = BspMachine.numa_hierarchy(4, delta=3, g=3, latency=5)
        for max_steps, more in ((100, False), (2, True)):
            counts, schedules = [], []
            for rounds in (1, 2):
                passes.clear()
                scheduler = MultilevelScheduler(
                    base_scheduler=BspGreedyScheduler(),
                    refine_max_steps=max_steps,
                    refine_rounds=rounds,
                )
                schedules.append(scheduler.schedule(dag, machine))
                counts.append(len(passes))
            assert (counts[1] > counts[0]) == more, (max_steps, counts)
            if not more:
                assert np.array_equal(schedules[0].procs, schedules[1].procs)
                assert np.array_equal(schedules[0].supersteps, schedules[1].supersteps)


_BAD_RATIOS = [(), (math.nan,), (0.0,), (-0.5,), (1.5,), (0.3, math.inf), [0.3]]
_BAD_CONFIGS = [
    {"hc_max_passes": "x"},
    {"hc_max_steps": -5},
    {"local_search_seconds": math.nan},
]


def _multilevel_request(params: dict) -> dict:
    request = ScheduleRequest(
        dag=random_dag(30, 0.1, seed=2),
        machine=MachineSpec(num_procs=4, g=2, latency=3, numa_delta=2),
        scheduler=SchedulerSpec("multilevel"),
    ).to_dict()
    request["scheduler"]["params"] = params
    return request


class TestMultilevelConfiguration:
    """Malformed multilevel requests raise ConfigurationError, never solve."""

    @pytest.mark.parametrize("ratios", _BAD_RATIOS, ids=repr)
    def test_bad_ratios_rejected_directly(self, ratios):
        with pytest.raises(ConfigurationError, match="coarsening"):
            MultilevelScheduler(coarsening_ratios=ratios)

    @pytest.mark.parametrize("ratios", _BAD_RATIOS[:-1], ids=repr)
    def test_bad_ratios_rejected_through_the_service(self, ratios):
        data = _multilevel_request({"coarsening_ratios": list(ratios)})
        with pytest.raises(ConfigurationError, match="coarsening"):
            SchedulingService(cache_size=0).solve(ScheduleRequest.from_dict(data))

    @pytest.mark.parametrize("config", _BAD_CONFIGS, ids=repr)
    def test_bad_config_rejected_directly(self, config):
        with pytest.raises(ConfigurationError, match="PipelineConfig"):
            PipelineConfig(**config)

    @pytest.mark.parametrize("config", _BAD_CONFIGS, ids=repr)
    def test_bad_config_rejected_through_the_service(self, config):
        data = _multilevel_request({"config": config})
        with pytest.raises(ConfigurationError, match="PipelineConfig"):
            SchedulingService(cache_size=0).solve(ScheduleRequest.from_dict(data))

    def test_valid_ratios_kept(self):
        scheduler = MultilevelScheduler(coarsening_ratios=(1, 0.5, np.float64(0.1)))
        assert scheduler.coarsening_ratios == (1, 0.5, 0.1)
