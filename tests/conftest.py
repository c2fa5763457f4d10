"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import BspMachine, BspSchedule, ComputationalDAG, DagBuilder
from repro.dagdb import SparseMatrixPattern, build_spmv_dag


def dag_from_edges(
    num_nodes: int, edges, work=None, comm=None, name: str = "dag"
) -> ComputationalDAG:
    """A DAG with ``edges`` (``(source, target)`` pairs) in the given order."""
    builder = DagBuilder(num_nodes, work, comm, name=name)
    builder.add_edges(edges)
    return builder.freeze()


def build_diamond_dag() -> ComputationalDAG:
    """A 4-node diamond: 0 -> {1, 2} -> 3, unit weights."""
    return dag_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def build_chain_dag(length: int = 5, work: float = 1.0, comm: float = 1.0) -> ComputationalDAG:
    """A simple path 0 -> 1 -> ... -> length-1."""
    return dag_from_edges(
        length, [(i, i + 1) for i in range(length - 1)], [work] * length, [comm] * length
    )


def build_fork_join_dag(width: int = 4) -> ComputationalDAG:
    """One source fanning out to ``width`` nodes that join into one sink."""
    edges = []
    for i in range(1, width + 1):
        edges += [(0, i), (i, width + 1)]
    return dag_from_edges(width + 2, edges)


def build_paper_example_dag() -> ComputationalDAG:
    """A small two-layer DAG in the spirit of Figure 1 of the paper."""
    # first layer: 0..5 sources feeding 6..8, second layer: 9..11
    edges = [
        (0, 6), (1, 6), (1, 7), (2, 7), (3, 7), (4, 8), (5, 8),
        (6, 9), (7, 9), (7, 10), (8, 10), (8, 11),
    ]
    return dag_from_edges(12, edges)


def random_edges(num_nodes: int, edge_prob: float, rng) -> list[tuple[int, int]]:
    """Edge (i, j) for i < j with the given probability, drawn pair by pair."""
    return [
        (i, j)
        for i in range(num_nodes)
        for j in range(i + 1, num_nodes)
        if rng.random() < edge_prob
    ]


def random_dag(num_nodes: int, edge_prob: float, seed: int) -> ComputationalDAG:
    """Random DAG: edge (i, j) for i < j with the given probability, random weights."""
    rng = np.random.default_rng(seed)
    works = rng.integers(1, 6, size=num_nodes).astype(float)
    comms = rng.integers(1, 4, size=num_nodes).astype(float)
    edges = random_edges(num_nodes, edge_prob, rng)
    return dag_from_edges(num_nodes, edges, works, comms, name=f"random_{seed}")


#: processor counts and g values the differential oracle tests cycle through
ORACLE_PROCS = (1, 2, 3, 4, 8, 16)
ORACLE_GS = (0, 1, 3, 5)


def oracle_machine(rng, num_procs: int, g: float, numa: bool) -> BspMachine:
    """A uniform machine, or a NUMA one: a hierarchy for powers of two, else a random matrix."""
    if not numa:
        return BspMachine.uniform(num_procs, g=g)
    if num_procs >= 2 and num_procs & (num_procs - 1) == 0:
        return BspMachine.numa_hierarchy(num_procs, delta=int(rng.integers(2, 5)), g=g)
    matrix = rng.integers(1, 5, size=(num_procs, num_procs)).astype(float)
    np.fill_diagonal(matrix, 0.0)
    return BspMachine.from_numa_matrix(matrix, g=g)


def oracle_dag(rng, weights: str) -> ComputationalDAG:
    """A random DAG of 1-39 nodes under one of four weight models.

    ``decimal`` draws tenths, whose sums leave float residue, so start
    times on different processors often differ only in the last bits;
    ``zero`` makes about a third of all weights zero.
    """
    n = int(rng.integers(1, 40))
    edge_prob = float(rng.uniform(0.02, 0.4))
    if weights == "integer":
        works = rng.integers(1, 6, size=n).astype(float)
        comms = rng.integers(1, 4, size=n).astype(float)
    elif weights == "real":
        works = rng.uniform(0.1, 5.0, size=n)
        comms = rng.uniform(0.0, 3.0, size=n)
    elif weights == "decimal":
        works = rng.integers(1, 10, size=n) / 10
        comms = rng.integers(0, 10, size=n) / 10
    else:
        works = rng.integers(0, 3, size=n).astype(float)
        comms = rng.integers(0, 3, size=n).astype(float)
    return dag_from_edges(n, random_edges(n, edge_prob, rng), works, comms)


@contextmanager
def time_limit(seconds: int):
    """Raise ``TimeoutError`` in the block after ``seconds``, so a hang fails the test."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def first_ilp_init_model(dag: ComputationalDAG, machine: BspMachine, max_variables: int = 200):
    """The MILP of ILPinit's first batch: nothing assigned yet, no context."""
    from repro.schedulers import IlpInitScheduler, WindowIlp

    batch = IlpInitScheduler(max_variables=max_variables)._batches(dag, machine.num_procs)[0]
    unassigned = np.full(dag.num_nodes, -1)
    ilp = WindowIlp(dag, machine, unassigned, unassigned, reassign=batch, window=(0, 2))
    return ilp.build_model()[0]


def assert_valid_schedule(schedule: BspSchedule) -> None:
    """Assert the schedule satisfies every BSP validity condition."""
    violations = schedule.violations()
    assert not violations, "invalid schedule:\n" + "\n".join(violations)


@pytest.fixture
def random_dag_factory():
    """The :func:`random_dag` helper as a fixture.

    Lets test modules use the helper without a ``from conftest import ...``
    statement, which is fragile when several conftest modules are on
    ``sys.path`` (the benchmarks directory has its own conftest).
    """
    return random_dag


@pytest.fixture
def diamond_dag() -> ComputationalDAG:
    return build_diamond_dag()


@pytest.fixture
def chain_dag() -> ComputationalDAG:
    return build_chain_dag()


@pytest.fixture
def fork_join_dag() -> ComputationalDAG:
    return build_fork_join_dag()


@pytest.fixture
def paper_example_dag() -> ComputationalDAG:
    return build_paper_example_dag()


@pytest.fixture
def spmv_dag() -> ComputationalDAG:
    pattern = SparseMatrixPattern.random(8, 0.35, seed=3, ensure_diagonal=True)
    return build_spmv_dag(pattern).dag


@pytest.fixture
def machine2() -> BspMachine:
    return BspMachine.uniform(2, g=1, latency=2)


@pytest.fixture
def machine4() -> BspMachine:
    return BspMachine.uniform(4, g=2, latency=5)


@pytest.fixture
def numa_machine8() -> BspMachine:
    return BspMachine.numa_hierarchy(8, delta=3, g=1, latency=5)
