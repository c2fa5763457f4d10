"""Property-based tests (hypothesis) for the core data structures and invariants.

These cover the load-bearing invariants of the framework:

* every scheduler always produces a *valid* BSP schedule on arbitrary DAGs;
* the incremental cost tracker agrees with the from-scratch cost evaluation;
* improvers never increase the cost;
* coarsening preserves acyclicity and total weights at every level;
* the hyperDAG file format round-trips exactly;
* every registry scheduler's reported cost is the cost the paper's
  definition gives its schedule (:mod:`oracles.cost`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Budget, ScheduleRequest, SchedulerSpec, SchedulingService
from repro.core import BspMachine, BspSchedule, ComputationalDAG
from repro.io import dumps_hyperdag, loads_hyperdag
from repro.schedulers import (
    BspGreedyScheduler,
    CilkScheduler,
    CommScheduleHillClimbing,
    EtfScheduler,
    HDaggScheduler,
    HillClimbingImprover,
    LazyCostTracker,
    PipelineConfig,
    SourceScheduler,
    available_schedulers,
)
from repro.schedulers.multilevel import coarsen_dag
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import assert_valid_schedule
from oracles.cost import definition_cost, lazy_gamma, violations


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
@st.composite
def dags(draw, max_nodes: int = 24):
    """Random weighted DAGs with edges oriented from lower to higher index."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    works = draw(
        st.lists(st.integers(1, 9), min_size=num_nodes, max_size=num_nodes)
    )
    comms = draw(
        st.lists(st.integers(1, 5), min_size=num_nodes, max_size=num_nodes)
    )
    dag = ComputationalDAG(num_nodes, [float(w) for w in works], [float(c) for c in comms])
    density = draw(st.floats(0.0, 0.5))
    rng_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(rng_seed)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < density:
                dag.add_edge(i, j)
    return dag


@st.composite
def machines(draw):
    kind = draw(st.sampled_from(["uniform", "numa"]))
    g = draw(st.sampled_from([0.0, 1.0, 3.0, 5.0]))
    latency = draw(st.sampled_from([0.0, 1.0, 5.0]))
    if kind == "uniform":
        procs = draw(st.sampled_from([1, 2, 3, 4, 8]))
        return BspMachine.uniform(procs, g=g, latency=latency)
    procs = draw(st.sampled_from([2, 4, 8]))
    delta = draw(st.sampled_from([2.0, 3.0, 4.0]))
    return BspMachine.numa_hierarchy(procs, delta=delta, g=g, latency=latency)


COMMON_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------- #
# schedulers always produce valid schedules
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "scheduler_factory",
    [
        lambda: CilkScheduler(seed=0),
        EtfScheduler,
        HDaggScheduler,
        BspGreedyScheduler,
        SourceScheduler,
        RoundRobinScheduler,
    ],
    ids=["cilk", "etf", "hdagg", "bsp_greedy", "source", "round_robin"],
)
@COMMON_SETTINGS
@given(dag=dags(), machine=machines())
def test_schedulers_always_produce_valid_schedules(scheduler_factory, dag, machine):
    schedule = scheduler_factory().schedule(dag, machine)
    assert_valid_schedule(schedule)
    assert schedule.cost() >= 0
    # crude sanity upper bound: every node is computed once, every value is
    # sent to at most P-1 other processors at the worst NUMA multiplier, and
    # there are at most n+1 supersteps
    worst_fanout = max(machine.num_procs - 1, 1)
    assert schedule.cost() <= dag.total_work + machine.g * (
        dag.total_comm * worst_fanout * max(machine.max_numa_multiplier, 1.0)
    ) + machine.latency * (dag.num_nodes + 1)


# ---------------------------------------------------------------------- #
# cost model invariants
# ---------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(dag=dags(), machine=machines())
def test_tracker_cost_matches_schedule_cost(dag, machine):
    schedule = RoundRobinScheduler().schedule(dag, machine)
    tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
    assert tracker.cost() == pytest.approx(schedule.cost())


@COMMON_SETTINGS
@given(dag=dags(max_nodes=16), machine=machines(), data=st.data())
def test_tracker_moves_stay_consistent(dag, machine, data):
    schedule = RoundRobinScheduler().schedule(dag, machine)
    tracker = LazyCostTracker(dag, machine, schedule.procs, schedule.supersteps)
    for _ in range(10):
        v = data.draw(st.integers(0, dag.num_nodes - 1))
        p = data.draw(st.integers(0, machine.num_procs - 1))
        s = int(tracker.supersteps[v]) + data.draw(st.integers(-1, 1))
        if tracker.is_valid_move(v, p, s):
            tracker.apply_move(v, p, s)
    reference = LazyCostTracker(
        dag, machine, tracker.procs, tracker.supersteps, tracker.num_supersteps
    )
    assert tracker.cost() == pytest.approx(reference.cost())
    rebuilt = BspSchedule(dag, machine, tracker.procs, tracker.supersteps, validate=False)
    assert rebuilt.is_valid()


@COMMON_SETTINGS
@given(dag=dags(max_nodes=18), machine=machines())
def test_improvers_never_increase_cost(dag, machine):
    start = RoundRobinScheduler().schedule(dag, machine)
    hc = HillClimbingImprover(max_passes=3).improve(start)
    assert hc.cost() <= start.cost() + 1e-9
    assert_valid_schedule(hc)
    hccs = CommScheduleHillClimbing(max_passes=3).improve(hc)
    assert hccs.cost() <= hc.cost() + 1e-9
    assert_valid_schedule(hccs)


@COMMON_SETTINGS
@given(
    dag=dags(),
    machine=machines(),
    copies=st.integers(2, 3),
    cilk_seed=st.integers(0, 2**16),
    max_steps=st.one_of(st.none(), st.integers(0, 6)),
)
def test_joint_climb_equals_lone_climbs(dag, machine, copies, cilk_seed, max_steps):
    """``improve_many`` gives each start the schedule, moves and stop of a lone ``improve``."""
    initializers = (BspGreedyScheduler(), SourceScheduler(), CilkScheduler(seed=cilk_seed))
    starts = [init.schedule(dag, machine).with_lazy_comm() for init in initializers[:copies]]
    joint = HillClimbingImprover(max_steps=max_steps, record_moves=True)
    results = joint.improve_many(starts)
    for start, result, moves, stop in zip(starts, results, joint.copy_moves, joint.copy_stops):
        alone = HillClimbingImprover(max_steps=max_steps, record_moves=True)
        expected = alone.improve(start)
        assert (moves, stop) == (alone.last_moves, alone.last_stop)
        assert np.array_equal(result.procs, expected.procs)
        assert np.array_equal(result.supersteps, expected.supersteps)
        assert result.cost() == expected.cost()


@COMMON_SETTINGS
@given(dag=dags(), machine=machines())
def test_lazy_schedule_at_least_as_good_without_explicit_comm(dag, machine):
    """The compacted trivial schedule is a universal upper bound on the framework output."""
    schedule = BspGreedyScheduler().schedule(dag, machine)
    improved = HillClimbingImprover(max_passes=2).improve(schedule)
    trivial = BspSchedule.trivial(dag, machine)
    # the framework keeps the better of its own result and what it started from,
    # so it can be worse than trivial, but never worse than its own start
    assert improved.cost() <= schedule.cost() + 1e-9
    assert trivial.cost() == dag.total_work + machine.latency


# ---------------------------------------------------------------------- #
# coarsening invariants
# ---------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(dag=dags(max_nodes=20), ratio=st.sampled_from([0.25, 0.5, 0.75]))
def test_coarsening_preserves_structure(dag, ratio):
    target = max(1, int(dag.num_nodes * ratio))
    sequence = coarsen_dag(dag, target_nodes=target)
    quotient = sequence.quotient()
    assert quotient.dag.is_acyclic()
    assert quotient.dag.total_work == pytest.approx(dag.total_work)
    assert quotient.dag.total_comm == pytest.approx(dag.total_comm)
    # intermediate levels are consistent as well
    mid = sequence.num_contractions // 2
    mid_quotient = sequence.quotient(mid)
    assert mid_quotient.dag.is_acyclic()
    assert mid_quotient.dag.num_nodes == dag.num_nodes - mid
    # representative map is idempotent (every node maps onto a live representative)
    rep = sequence.representative_map()
    assert all(rep[rep[v]] == rep[v] for v in dag.nodes())


# ---------------------------------------------------------------------- #
# file format round trip
# ---------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(dag=dags())
def test_hyperdag_roundtrip(dag):
    back = loads_hyperdag(dumps_hyperdag(dag))
    assert back.num_nodes == dag.num_nodes
    assert back.num_edges == dag.num_edges
    assert np.allclose(back.work_weights, dag.work_weights)
    assert np.allclose(back.comm_weights, dag.comm_weights)
    assert {(e.source, e.target) for e in back.edges()} == {
        (e.source, e.target) for e in dag.edges()
    }


# ---------------------------------------------------------------------- #
# reported costs against the paper's definition
# ---------------------------------------------------------------------- #
_CLOCKLESS_CONFIG = PipelineConfig(
    ilp_node_limit=1,
    ilp_full_max_variables=200,
    ilp_partial_max_variables=150,
    ilp_init_max_variables=100,
    local_search_seconds=None,
    ilp_full_seconds=None,
    ilp_partial_seconds=None,
    ilp_comm_seconds=None,
    ilp_init_seconds=None,
)
#: every scheduler's own clocks off, so each example is a fixed amount of
#: work; the variable caps keep each HiGHS root solve small
_CLOCKLESS_PARAMS = {
    "framework": {"config": _CLOCKLESS_CONFIG},
    "framework_heuristics": {"local_search_seconds": None},
    "ilp_init": {"max_variables": 100, "time_limit_per_batch": None, "node_limit": 1},
    "multilevel": {"config": _CLOCKLESS_CONFIG},
}


@pytest.mark.parametrize("name", available_schedulers())
@settings(COMMON_SETTINGS, max_examples=3)
@given(dag=dags(), machine=machines())
def test_reported_cost_is_the_definition_cost(name, dag, machine):
    request = ScheduleRequest(
        dag,
        machine,
        SchedulerSpec(name, _CLOCKLESS_PARAMS.get(name, {})),
        Budget(ilp_node_limit=1),
    )
    result = SchedulingService(cache_size=0).solve(request)
    payload = result.schedule_dict()
    procs, steps = payload["procs"], payload["supersteps"]
    edges = list(zip(*(ends.tolist() for ends in dag.edge_arrays())))
    if "comm_schedule" in payload:
        gamma = [tuple(step) for step in payload["comm_schedule"]]
    else:
        gamma = lazy_gamma(edges, procs, steps)
    assert violations(machine.num_procs, edges, procs, steps, gamma) == []
    assert result.to_schedule().violations() == []
    cost = definition_cost(
        dag.work_weights.tolist(),
        dag.comm_weights.tolist(),
        machine.numa.tolist(),
        float(machine.g),
        float(machine.latency),
        procs,
        steps,
        gamma,
    )
    assert result.cost == pytest.approx(cost, rel=1e-9, abs=1e-9)
    assert payload["cost"] == pytest.approx(cost, rel=1e-9, abs=1e-9)
