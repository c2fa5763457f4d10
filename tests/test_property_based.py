"""Property-based tests (hypothesis) for the core data structures and invariants.

These cover the load-bearing invariants of the framework:

* every scheduler always produces a *valid* BSP schedule on arbitrary DAGs;
* the incremental cost tracker agrees with the from-scratch cost evaluation;
* improvers never increase the cost, and a joint climb gives each of its
  schedules the climb it would get alone;
* the multilevel scheduler's lockstep walk equals its per-ratio oracle;
* coarsening preserves acyclicity and total weights at every level;
* the hyperDAG file format round-trips exactly;
* every registry scheduler's reported cost is the cost the paper's
  definition gives its schedule (:mod:`oracles.cost`);
* the lazy cost, read from the lazy transfer columns, is that definition's
  cost, and the vectorized explicit-``Γ`` traffic equals the per-transfer
  loop bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Budget, ScheduleRequest, SchedulerSpec, SchedulingService
from repro.core import BspMachine, BspSchedule, CommStep, ComputationalDAG, evaluate_cost
from repro.core.cost import comm_matrices
from repro.io import dumps_hyperdag, loads_hyperdag
from repro.schedulers import (
    BspGreedyScheduler,
    CilkScheduler,
    CommScheduleHillClimbing,
    EtfScheduler,
    HDaggScheduler,
    HillClimbingImprover,
    LazyCostTracker,
    MultilevelScheduler,
    PipelineConfig,
    SchedulingPipeline,
    SourceScheduler,
    available_schedulers,
)
from repro.schedulers.multilevel import coarsen_dag
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import assert_valid_schedule, dag_from_edges, random_edges
from oracles.cost import comm_matrices as comm_matrices_loop
from oracles.cost import definition_cost, lazy_gamma, violations
from oracles.multilevel import multilevel_reference


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
#: (work, comm) weight strategies; ``dyadic`` draws eighths, which float
#: arithmetic adds exactly in any order
_WEIGHTS = {
    "integer": (st.integers(1, 9).map(float), st.integers(1, 5).map(float)),
    "dyadic": (st.integers(1, 72).map(lambda k: k / 8), st.integers(1, 40).map(lambda k: k / 8)),
}


@st.composite
def dags(draw, max_nodes: int = 24, min_nodes: int = 1, weights: str = "integer"):
    """Random weighted DAGs with edges oriented from lower to higher index.

    ``weights`` is ``integer``, ``dyadic`` or ``real``; real weights are
    uniform draws, which fill the mantissa, so their sums depend on order.
    """
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    if weights == "real":
        weight_rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        works = weight_rng.uniform(0.1, 9.0, num_nodes).tolist()
        comms = weight_rng.uniform(0.1, 5.0, num_nodes).tolist()
    else:
        work, comm = _WEIGHTS[weights]
        works = draw(st.lists(work, min_size=num_nodes, max_size=num_nodes))
        comms = draw(st.lists(comm, min_size=num_nodes, max_size=num_nodes))
    density = draw(st.floats(0.0, 0.5))
    rng_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(rng_seed)
    return dag_from_edges(num_nodes, random_edges(num_nodes, density, rng), works, comms)


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
    dag=dags(min_nodes=0),
    machine=machines(),
    copies=st.integers(2, 3),
    cilk_seed=st.integers(0, 2**16),
    max_steps=st.one_of(st.none(), st.integers(0, 6)),
    data=st.data(),
)
def test_joint_climb_equals_lone_climbs(dag, machine, copies, cilk_seed, max_steps, data):
    """``improve_many`` gives each start the schedule, moves and stop of a lone ``improve``.

    Each start is on the shared DAG or on a DAG of its own, of 0 nodes or more.
    """
    initializers = (BspGreedyScheduler(), SourceScheduler(), CilkScheduler(seed=cilk_seed))
    starts = []
    for init in initializers[:copies]:
        own = data.draw(st.one_of(st.none(), dags(max_nodes=12, min_nodes=0)))
        starts.append(init.schedule(dag if own is None else own, machine).with_lazy_comm())
    joint = HillClimbingImprover(max_steps=max_steps, record_moves=True)
    results = joint.improve_many(starts)
    for start, result, moves, stop in zip(starts, results, joint.copy_moves, joint.copy_stops):
        alone = HillClimbingImprover(max_steps=max_steps, record_moves=True)
        expected = alone.improve(start)
        assert (moves, stop) == (alone.last_moves, alone.last_stop)
        assert result.procs.tobytes() == expected.procs.tobytes()
        assert result.supersteps.tobytes() == expected.supersteps.tobytes()
        assert result.cost() == expected.cost()


@st.composite
def multilevel_dags(draw):
    """Random DAGs of 16-70 nodes with integer or dyadic weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(16, 70))
    if draw(st.sampled_from(["integer", "dyadic"])) == "integer":
        work, comm = rng.integers(1, 6, n).astype(float), rng.integers(1, 4, n).astype(float)
    else:
        work, comm = rng.integers(1, 41, n) / 8, rng.integers(0, 25, n) / 8
    density = draw(st.floats(0.02, 0.12))
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
    return ComputationalDAG.from_edge_arrays(n, src, dst, work, comm)


@settings(COMMON_SETTINGS, max_examples=20)
@given(
    dag=multilevel_dags(),
    machine=machines(),
    ratios=st.lists(st.sampled_from([1.0, 0.5, 0.3, 0.15, 0.1]), min_size=1, max_size=3),
    max_steps=st.sampled_from([2, 5, 100]),
    pipeline_base=st.booleans(),
)
def test_multilevel_equals_its_per_ratio_oracle(dag, machine, ratios, max_steps, pipeline_base):
    """The ratios' lockstep walk gives each ratio's own walk, so the oracle's schedule."""
    base = (
        SchedulingPipeline(
            PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=None)
        )
        if pipeline_base
        else BspGreedyScheduler()
    )
    scheduler = MultilevelScheduler(
        base_scheduler=base,
        coarsening_ratios=tuple(ratios),
        refine_max_steps=max_steps,
    )
    got = scheduler.schedule(dag, machine)
    expected = multilevel_reference(scheduler, dag, machine)
    assert got.procs.tobytes() == expected.procs.tobytes()
    assert got.supersteps.tobytes() == expected.supersteps.tobytes()


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


@pytest.mark.parametrize("weights", ["integer", "dyadic", "real"])
@COMMON_SETTINGS
@given(machine=machines(), data=st.data())
def test_lazy_cost_is_the_definition_cost(weights, machine, data):
    """Costing the lazy transfer columns gives the definition's cost.

    Exact on integer and dyadic weights, whose sums are exact in any order;
    on real weights only the order in which a cell sums its transfers, and
    the supersteps their terms, differs, so a relative 1e-12 holds.
    """
    dag = data.draw(dags(weights=weights))
    scheduler = data.draw(st.sampled_from([CilkScheduler, BspGreedyScheduler, RoundRobinScheduler]))
    schedule = scheduler().schedule(dag, machine)
    procs, steps = schedule.procs.tolist(), schedule.supersteps.tolist()
    edges = list(zip(*(ends.tolist() for ends in dag.edge_arrays())))
    expected = definition_cost(
        dag.work_weights.tolist(),
        dag.comm_weights.tolist(),
        machine.numa.tolist(),
        float(machine.g),
        float(machine.latency),
        procs,
        steps,
        lazy_gamma(edges, procs, steps),
    )
    cost = evaluate_cost(dag, machine, schedule.procs, schedule.supersteps, None).total
    if weights == "real":
        assert cost == pytest.approx(expected, rel=1e-12, abs=0.0)
    else:
        assert cost == expected
    assert schedule.cost() == cost


@COMMON_SETTINGS
@given(dag=dags(weights="real"), data=st.data())
def test_explicit_comm_matrices_equal_the_loop(dag, data):
    """The vectorized explicit-Γ traffic is the per-transfer loop's, bit for bit."""
    num_procs = data.draw(st.integers(1, 5))
    num_steps = data.draw(st.integers(1, 5))
    count = data.draw(st.integers(0, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    numa = rng.uniform(0.5, 4.0, (num_procs, num_procs))
    np.fill_diagonal(numa, 0.0)
    machine = BspMachine.from_numa_matrix(numa, g=1.0)
    # many transfers on few cells, so most cells sum three or more
    gamma = list(
        zip(
            rng.integers(0, dag.num_nodes, count).tolist(),
            rng.integers(0, num_procs, count).tolist(),
            rng.integers(0, num_procs, count).tolist(),
            rng.integers(0, num_steps, count).tolist(),
        )
    )
    send, recv = comm_matrices(dag, machine, num_steps, [CommStep(*t) for t in gamma])
    loop_send, loop_recv = comm_matrices_loop(
        dag.comm_weights.tolist(), numa.tolist(), num_steps, gamma
    )
    assert send.tobytes() == np.array(loop_send).tobytes()
    assert recv.tobytes() == np.array(loop_recv).tobytes()


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
