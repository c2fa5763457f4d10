"""Unit tests for the HDagg wavefront-aggregation baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, ComputationalDAG
from repro.schedulers import HDaggScheduler

from conftest import (
    assert_valid_schedule,
    build_chain_dag,
    build_fork_join_dag,
    build_paper_example_dag,
    dag_from_edges,
    random_dag,
)
from repro.dagdb import SparseMatrixPattern, build_spmv_dag


class TestValidity:
    @pytest.mark.parametrize("num_procs", [1, 2, 4, 8])
    def test_valid_on_various_dags(self, num_procs):
        machine = BspMachine.uniform(num_procs, g=2, latency=3)
        for dag in (
            build_chain_dag(8),
            build_fork_join_dag(10),
            build_paper_example_dag(),
            random_dag(40, 0.1, seed=2),
        ):
            assert_valid_schedule(HDaggScheduler().schedule(dag, machine))

    def test_empty_dag(self):
        machine = BspMachine.uniform(4)
        schedule = HDaggScheduler().schedule(ComputationalDAG(0), machine)
        assert schedule.cost() == 0.0

    def test_sptrsv_style_input(self):
        """HDagg's home turf: a lower-triangular system's dependency DAG."""
        pattern = SparseMatrixPattern.lower_triangular_random(30, 0.15, seed=3)
        edges = [(j, i) for i in range(30) for j in pattern.row(i) if j != i]
        dag = dag_from_edges(30, edges)
        machine = BspMachine.uniform(4, g=1, latency=2)
        assert_valid_schedule(HDaggScheduler().schedule(dag, machine))


class TestWavefrontStructure:
    def test_supersteps_follow_levels_without_aggregation(self):
        """A wide DAG needs no aggregation: supersteps equal topological levels."""
        dag = build_fork_join_dag(16)
        machine = BspMachine.uniform(2)
        schedule = HDaggScheduler().schedule(dag, machine)
        levels = dag.levels()
        # superstep order respects level order
        for edge in dag.edges():
            assert schedule.superstep_of(edge.source) <= schedule.superstep_of(edge.target)
        assert schedule.num_supersteps <= int(levels.max()) + 1

    def test_thin_wavefronts_are_aggregated(self):
        """A pure chain exposes no parallelism: HDagg merges its wavefronts."""
        dag = build_chain_dag(20)
        machine = BspMachine.uniform(4)
        schedule = HDaggScheduler(max_group_levels=50).schedule(dag, machine)
        assert schedule.num_supersteps < 20

    def test_aggregation_respects_max_group_levels(self):
        dag = build_chain_dag(30)
        machine = BspMachine.uniform(4)
        schedule = HDaggScheduler(max_group_levels=5).schedule(dag, machine)
        assert schedule.num_supersteps >= 6

    def test_a_group_of_thin_wavefronts_has_fewer_units_than_processors(self):
        """No group of thin wavefronts reaches P units, so no unit count is needed.

        Every node of a group's later wavefront hangs under the wavefront
        before it, so a group has at most as many units as its first one.
        """
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dag = random_dag(int(rng.integers(10, 120)), float(rng.uniform(0.01, 0.15)), seed)
            num_procs = int(rng.choice([2, 3, 4, 8, 16]))
            levels = dag.levels()
            scheduler = HDaggScheduler(max_group_levels=50)
            groups = scheduler._group_levels(dag, num_procs, levels)
            _, _, group_units = scheduler._units(dag, groups, levels)
            for group, num_units in zip(groups, np.diff(group_units)):
                if np.bincount(levels[group]).max() < num_procs:
                    assert num_units < num_procs, seed

    def test_intra_superstep_dependencies_stay_on_one_processor(self):
        dag = random_dag(50, 0.08, seed=9)
        machine = BspMachine.uniform(4)
        schedule = HDaggScheduler().schedule(dag, machine)
        for edge in dag.edges():
            if schedule.superstep_of(edge.source) == schedule.superstep_of(edge.target):
                assert schedule.proc_of(edge.source) == schedule.proc_of(edge.target)


class TestLoadBalancing:
    def test_independent_units_are_spread(self):
        """Many equal independent chains should use every processor."""
        dag = dag_from_edges(16, [(2 * c, 2 * c + 1) for c in range(8)])
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = HDaggScheduler().schedule(dag, machine)
        assert len(set(schedule.procs.tolist())) == 4

    def test_work_balance_within_factor(self):
        dag = build_fork_join_dag(32)
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = HDaggScheduler(balance_factor=1.2).schedule(dag, machine)
        middle = [v for v in dag.nodes() if 1 <= v <= 32]
        loads = np.zeros(4)
        for v in middle:
            loads[schedule.proc_of(v)] += dag.work(v)
        assert loads.max() <= 1.5 * loads.mean()

    def test_fat_wavefront_not_serialised_by_thin_neighbours(self):
        """A 1-wide source must not drag a 32-wide wavefront onto one processor."""
        dag = build_fork_join_dag(32)
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = HDaggScheduler().schedule(dag, machine)
        middle_procs = {schedule.proc_of(v) for v in range(1, 33)}
        assert len(middle_procs) == 4

    def test_locality_preferred_when_affordable(self):
        """A successor whose predecessor communication is heavy follows its predecessor."""
        dag = dag_from_edges(4, [(0, 2), (1, 3)], [1, 1, 1, 1], [50, 1, 1, 1])
        machine = BspMachine.uniform(2, g=5)
        schedule = HDaggScheduler().schedule(dag, machine)
        if schedule.superstep_of(2) != schedule.superstep_of(0):
            assert schedule.proc_of(2) == schedule.proc_of(0)


class TestAgainstSimpleBounds:
    def test_better_than_worst_case_on_spmv(self):
        dag = build_spmv_dag(SparseMatrixPattern.random(10, 0.3, seed=5)).dag
        machine = BspMachine.uniform(4, g=1, latency=2)
        schedule = HDaggScheduler().schedule(dag, machine)
        # sanity: no worse than serialising everything with maximum latency
        assert schedule.cost() <= dag.total_work + dag.total_comm * machine.g + \
            machine.latency * dag.num_nodes
