"""Tests for the pass kernels (``repro.core.kernels``).

Two concerns live here:

* **parity** — every kernel must drive the HC/HCcs refiners to exactly the
  moves of the retained seed references, and the batched HCcs fronts must
  reproduce the serial window walk move for move;
* **oracles** — each kernel called directly agrees with a brute-force
  recomputation of what it promises (reachability, a valid topological
  order, the scan-order front, dense symbolic elimination).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import BspMachine, kernels
from repro.core.parallel import parallel_map
from repro.schedulers import CommScheduleHillClimbing, HillClimbingImprover
from repro.schedulers.multilevel.coarsen import _FlatGraph
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import random_dag
from oracles.refiners import (
    CommScheduleHillClimbingReference,
    HillClimbingImproverReference,
)


# ---------------------------------------------------------------------- #
# implementation name
# ---------------------------------------------------------------------- #
class TestBackendSelection:
    def test_default_backend(self):
        # the name the benchmarks record as host metadata
        assert kernels.get_backend() == "numpy"


# ---------------------------------------------------------------------- #
# parity with the seed references
# ---------------------------------------------------------------------- #
def _synthetic_hccs_state(rng, num_rows=64, num_windows=400, procs=4):
    """Windows with narrow feasible intervals scattered over many rows."""
    lo = rng.integers(0, num_rows - 4, size=num_windows)
    hi = lo + rng.integers(1, 4, size=num_windows)
    srcs = rng.integers(0, procs, size=num_windows)
    tgts = (srcs + 1 + rng.integers(0, procs - 1, size=num_windows)) % procs
    volumes = rng.integers(1, 5, size=num_windows).astype(np.float64)
    choices = hi.copy()
    send = np.zeros((num_rows, procs))
    recv = np.zeros((num_rows, procs))
    np.add.at(send, (choices, srcs), volumes)
    np.add.at(recv, (choices, tgts), volumes)
    return kernels.HccsState(
        send=send,
        recv=recv,
        comm_max=np.maximum(send, recv).max(axis=1),
        choices=choices,
        movable=np.arange(num_windows, dtype=np.int64),
        srcs=srcs,
        tgts=tgts,
        earliest=lo,
        latest=hi,
        volumes=volumes,
    )


# parametrized by the implementation name the kernels report, so each
# result is tied to the implementation ``get_backend`` advertises
@pytest.mark.parametrize("backend", [kernels.get_backend()])
class TestBackendParity:
    def test_hc_moves_match_seed_reference(self, backend):
        for seed in range(4):
            dag = random_dag(28, 0.18, seed=200 + seed)
            machine = BspMachine.uniform(4, g=3, latency=2)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = HillClimbingImproverReference(record_moves=True)
            improver = HillClimbingImprover(record_moves=True)
            ref_result = reference.improve(start)
            result = improver.improve(start)
            assert reference.last_moves == improver.last_moves, (backend, seed)
            assert np.array_equal(ref_result.procs, result.procs)
            assert np.array_equal(ref_result.supersteps, result.supersteps)

    def test_hc_max_steps_cut_mid_pass(self, backend):
        dag = random_dag(30, 0.15, seed=41)
        machine = BspMachine.uniform(4, g=3, latency=2)
        start = RoundRobinScheduler().schedule(dag, machine)
        unlimited = HillClimbingImprover(record_moves=True)
        unlimited.improve(start)
        assert len(unlimited.last_moves) > 2, backend
        capped = HillClimbingImprover(max_steps=2, record_moves=True)
        capped.improve(start)
        assert capped.last_moves == unlimited.last_moves[:2]

    def test_hccs_moves_match_seed_reference(self, backend):
        for seed in range(4):
            dag = random_dag(32, 0.2, seed=300 + seed)
            machine = BspMachine.numa_hierarchy(4, delta=3, g=2, latency=1)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = CommScheduleHillClimbingReference(record_moves=True)
            improver = CommScheduleHillClimbing(record_moves=True)
            ref_result = reference.improve(start)
            result = improver.improve(start)
            assert reference.last_moves == improver.last_moves, (backend, seed)
            assert ref_result.comm_schedule == result.comm_schedule

    def test_hccs_fronts_match_serial_pass(self, backend):
        """Direct front-vs-serial pin on a state with genuinely large fronts.

        The windows use narrow feasible intervals scattered over many
        traffic rows in shuffled scan order, so the conflict scan extracts
        fronts well above the serial-tail guard — the batched kernel call
        is really exercised, and its accepted moves (and final row state)
        must equal the serial walk's exactly.
        """
        for seed in range(4):
            serial_state = _synthetic_hccs_state(np.random.default_rng(700 + seed))
            front_state = _synthetic_hccs_state(np.random.default_rng(700 + seed))
            mask = kernels.hccs_front_mask(
                front_state.earliest, front_state.latest, front_state.send.shape[0]
            )
            n = front_state.movable.size
            assert mask.sum() > max(8, n // 64)  # fronts genuinely batch
            got_s, serial_moves = kernels.hccs_pass(
                serial_state, 0, n, -1, 1e-9
            )
            got_f, front_moves = kernels.hccs_pass_fronts(front_state, 1e-9)
            assert front_moves == serial_moves, (backend, seed)
            assert got_f == got_s
            assert np.array_equal(front_state.choices, serial_state.choices)
            assert np.allclose(front_state.send, serial_state.send)
            assert np.allclose(front_state.recv, serial_state.recv)
            assert np.allclose(front_state.comm_max, serial_state.comm_max)


# ---------------------------------------------------------------------- #
# brute-force oracles, one kernel at a time
# ---------------------------------------------------------------------- #
MACHINES = {
    "uniform2": lambda: BspMachine.uniform(2, g=1, latency=0),
    "uniform8": lambda: BspMachine.uniform(8, g=2, latency=5),
    "numa4": lambda: BspMachine.numa_hierarchy(4, delta=3, g=2, latency=1),
    "numa8": lambda: BspMachine.numa_hierarchy(8, delta=2, g=1, latency=3),
}


def _alternative_path(succ, u, v):
    """Brute force: does a ``u -> v`` path other than the direct edge exist?"""
    stack = [w for w in succ[u] if w != v]
    seen = set(stack)
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for w in succ[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def _live_successors(graph):
    return {u: graph.succ_row(u).tolist() for u in graph.node_ids()}


def _dense_elimination(adj):
    """Brute-force symbolic Cholesky on a dense symmetric boolean pattern."""
    adj = adj.copy()
    n = adj.shape[0]
    structures, parents = [], []
    for j in range(n):
        higher = [int(i) for i in np.flatnonzero(adj[j]) if i > j]
        # eliminating j connects its remaining neighbours pairwise
        for i in higher:
            adj[i, higher] = True
            adj[higher, i] = True
        structures.append(higher)
        parents.append(higher[0] if higher else -1)
    return structures, parents


def _dense_pattern(name):
    n = 8
    adj = np.eye(n, dtype=bool)
    if name == "empty":
        return np.zeros((0, 0), dtype=bool)
    if name == "tridiagonal":
        idx = np.arange(n - 1)
        adj[idx, idx + 1] = adj[idx + 1, idx] = True
    elif name == "arrow_last":
        adj[n - 1, :] = adj[:, n - 1] = True
    elif name == "two_blocks":
        adj[:4, :4] = True
        adj[5, 7] = adj[7, 5] = True
    return adj


class TestKernelOracles:
    @pytest.mark.parametrize("machine", ["uniform2", "uniform8", "numa4"])
    def test_hc_pass_matches_reference_on_machine(self, machine):
        dag = random_dag(26, 0.2, seed=510)
        start = RoundRobinScheduler().schedule(dag, MACHINES[machine]())
        reference = HillClimbingImproverReference(record_moves=True)
        improver = HillClimbingImprover(record_moves=True)
        ref_result = reference.improve(start)
        result = improver.improve(start)
        assert improver.last_moves == reference.last_moves
        assert np.array_equal(ref_result.procs, result.procs)
        assert np.array_equal(ref_result.supersteps, result.supersteps)

    @pytest.mark.parametrize("machine", ["uniform2", "uniform8", "numa8"])
    def test_hccs_pass_matches_reference_on_machine(self, machine):
        dag = random_dag(30, 0.2, seed=520)
        start = RoundRobinScheduler().schedule(dag, MACHINES[machine]())
        reference = CommScheduleHillClimbingReference(record_moves=True)
        improver = CommScheduleHillClimbing(record_moves=True)
        ref_result = reference.improve(start)
        result = improver.improve(start)
        assert improver.last_moves == reference.last_moves
        assert ref_result.comm_schedule == result.comm_schedule

    def test_hccs_max_accept_cut_mid_pass(self):
        full = _synthetic_hccs_state(np.random.default_rng(730))
        capped = _synthetic_hccs_state(np.random.default_rng(730))
        n = full.movable.size
        _, all_moves = kernels.hccs_pass(full, 0, n, -1, 1e-9)
        assert len(all_moves) > 3
        got, moves = kernels.hccs_pass(capped, 0, n, 3, 1e-9)
        assert got == 3
        assert moves == all_moves[:3]

    @pytest.mark.parametrize("seed", range(4))
    def test_coarsen_reach_matches_brute_force(self, seed):
        dag = random_dag(40, 0.12, seed=600 + seed)
        graph = _FlatGraph(dag)
        succ = _live_successors(graph)
        for u, v in graph.edge_iter():
            exact = _alternative_path(succ, u, v)
            assert kernels.coarsen_reach(graph, u, v) == int(exact), (u, v)
            # a node budget may stop the walk early, but never lies
            assert kernels.coarsen_reach(graph, u, v, 1) in (-1, int(exact))

    @pytest.mark.parametrize("seed", range(4))
    def test_pk_probe_matches_brute_force(self, seed):
        dag = random_dag(40, 0.12, seed=610 + seed)
        graph = _FlatGraph(dag, use_order=True)
        succ = _live_successors(graph)
        for u, v in graph.edge_iter():
            exact = _alternative_path(succ, u, v)
            assert kernels.pk_order(graph, 0, u, v) == int(exact), (u, v)

    @pytest.mark.parametrize("seed", range(4))
    def test_pk_order_stays_valid_under_contraction(self, seed):
        """Contractions repair the order with PK insertions; it must stay topological."""
        dag = random_dag(36, 0.15, seed=620 + seed)
        graph = _FlatGraph(dag, use_order=True)
        rng = np.random.default_rng(seed)
        repairs = 0
        for _ in range(dag.num_nodes // 2):
            succ = _live_successors(graph)
            candidates = [
                (u, v) for u, v in graph.edge_iter() if not _alternative_path(succ, u, v)
            ]
            if not candidates:
                break
            u, v = candidates[int(rng.integers(len(candidates)))]
            before = graph.order.copy()
            graph.contract(u, v)
            repairs += int(not np.array_equal(before, graph.order))
            order = graph.order
            for x, w in graph.edge_iter():
                assert order[x] < order[w], (x, w)
            live = order[graph.node_ids()]
            assert np.unique(live).size == live.size
        assert repairs > 0  # the insertion branch really ran

    @pytest.mark.parametrize("seed", range(4))
    def test_front_mask_matches_greedy_scan(self, seed):
        rng = np.random.default_rng(640 + seed)
        num_rows = 30
        lo = rng.integers(0, num_rows - 3, size=50)
        hi = lo + rng.integers(0, 3, size=50)
        mask = kernels.hccs_front_mask(lo, hi, num_rows)
        # window k joins iff no earlier-scanned window overlaps it
        expected = [
            all(hi[j] < lo[k] or lo[j] > hi[k] for j in range(k))
            for k in range(lo.size)
        ]
        assert mask.tolist() == expected

    @pytest.mark.parametrize(
        "name", ["empty", "diagonal", "tridiagonal", "arrow_last", "two_blocks"]
    )
    def test_symbolic_fill_quotient_matches_dense_elimination(self, name):
        adj = _dense_pattern(name)
        n = adj.shape[0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(adj.sum(axis=1), out=indptr[1:])
        indices = np.flatnonzero(adj.ravel()) % max(n, 1)
        out_indptr, out_indices, parents = kernels.symbolic_fill_quotient(
            indptr, indices.astype(np.int64), n
        )
        structures, expected_parents = _dense_elimination(adj)
        got = [
            out_indices[out_indptr[j] : out_indptr[j + 1]].tolist() for j in range(n)
        ]
        assert got == structures
        assert parents.tolist() == expected_parents


# ---------------------------------------------------------------------- #
# process-pool parallel_map
# ---------------------------------------------------------------------- #
def _square(payload, task):
    return payload + task * task, os.getpid()


def _explode(payload, task):
    if task == 2:
        raise ValueError("boom")
    return task


def _explode_late(payload, task):
    if task >= 2:
        raise ValueError(f"boom {task}")
    return task


def _die_in_worker(parent_pid, task):
    """Task 3 kills any pool worker that runs it; the parent computes it."""
    if task == 3 and os.getpid() != parent_pid:
        os._exit(1)
    return task * task


@pytest.mark.filterwarnings("error::UserWarning")
class TestProcessPoolMap:
    """``parallel_map``'s contract on a real two-worker process pool.

    A silent fallback to serial execution warns, and warnings are errors
    here, so every test below really crosses the process boundary.
    """

    def test_results_in_task_order(self):
        tasks = list(range(12))
        seen = []
        got = parallel_map(
            _square, 10, tasks, workers=2,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert [value for value, _ in got] == [10 + task * task for task in tasks]
        assert os.getpid() not in {pid for _, pid in got}
        assert seen == list(enumerate(got))

    def test_task_error_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_explode, None, [0, 1, 2, 3], workers=2)

    def test_first_failure_in_task_order_is_raised(self):
        """Results are harvested in task order, so the raised error is too."""
        with pytest.raises(ValueError, match="^boom 2$"):
            parallel_map(_explode_late, None, [0, 1, 2, 3, 4, 5], workers=2)

    def test_on_result_sees_the_results_before_a_failure(self):
        seen = []
        with pytest.raises(ValueError, match="^boom 2$"):
            parallel_map(
                _explode_late, None, [0, 1, 2, 3, 4, 5], workers=2,
                on_result=lambda index, result: seen.append(index),
            )
        assert seen == [0, 1]

    def test_crashed_worker_is_recomputed_in_task_order(self):
        seen = []
        with pytest.warns(UserWarning, match="process pool failed"):
            got = parallel_map(
                _die_in_worker, os.getpid(), list(range(8)), workers=2,
                on_result=lambda index, result: seen.append((index, result)),
            )
        assert got == [task * task for task in range(8)]
        assert seen == list(enumerate(got))


class TestSerialMap:
    """``workers=1`` and batches of at most one task never start a pool."""

    def test_task_error_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_explode, None, [0, 1, 2, 3], workers=1)

    def test_trivial_batches_run_in_this_process(self):
        assert parallel_map(_square, 1, [], workers=2) == []
        assert parallel_map(_square, 1, [3], workers=2) == [(10, os.getpid())]
