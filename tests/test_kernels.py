"""Tests for the kernel-dispatch layer (``repro.core.kernels``).

Two concerns live here:

* **dispatch** — backend selection honours ``REPRO_KERNEL_BACKEND``, fails
  loudly on an impossible request (unknown name, numba forced where it is
  not importable), and degrades silently only on the *automatic* path;
* **parity** — every backend must drive the HC/HCcs refiners, the
  coarsener and the symbolic factorisation to identical results.  The
  ``loops`` backend runs the exact uncompiled loop bodies numba compiles,
  so this suite pins the compiled backend's semantics even on machines
  without numba; when numba is importable the jitted backend is tested
  directly as a third parametrization.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import BspMachine
from repro.core.kernels import (
    ENV_VAR,
    KernelBackendError,
    available_backends,
    backend_info,
    get_backend,
    numba_impl,
    warmup,
)
from repro.core.parallel import TaskError, parallel_map
from repro.dagdb import SparseMatrixPattern
from repro.dagdb.structured import symbolic_fill_structure
from repro.schedulers import CommScheduleHillClimbing, HillClimbingImprover
from repro.schedulers.multilevel.coarsen import coarsen_dag
from repro.schedulers.reference import (
    CommScheduleHillClimbingReference,
    HillClimbingImproverReference,
)
from repro.schedulers.trivial import RoundRobinScheduler

from conftest import random_dag

#: every backend the parity suite can exercise in this interpreter
PARITY_BACKENDS = ["numpy", "loops"] + (["numba"] if numba_impl.available() else [])


# ---------------------------------------------------------------------- #
# dispatch
# ---------------------------------------------------------------------- #
class TestBackendSelection:
    def test_default_backend(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        expected = "numba" if numba_impl.available() else "numpy"
        assert get_backend() == expected

    def test_forced_numpy(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert get_backend() == "numpy"

    def test_blank_override_means_automatic(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "   ")
        expected = "numba" if numba_impl.available() else "numpy"
        assert get_backend() == expected

    def test_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(KernelBackendError) as excinfo:
            get_backend()
        message = str(excinfo.value)
        assert "fortran" in message
        assert ENV_VAR in message
        assert "numpy" in message and "numba" in message

    def test_forced_numba_unavailable_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numba")
        monkeypatch.setattr(numba_impl, "available", lambda: False)
        monkeypatch.setattr(
            numba_impl, "unavailable_reason", lambda: "not importable"
        )
        with pytest.raises(KernelBackendError) as excinfo:
            get_backend()
        assert "speed" in str(excinfo.value)

    def test_available_backends_always_has_numpy(self):
        names = available_backends()
        assert "numpy" in names
        assert ("numba" in names) == numba_impl.available()

    def test_backend_info_shape(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        info = backend_info()
        assert info["error"] is None
        assert info["active"] in ("numpy", "numba")
        assert info["forced"] is None
        assert "numpy" in info["available"]
        assert info["numba_available"] == numba_impl.available()

    def test_backend_info_reports_error_instead_of_raising(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        info = backend_info()
        assert info["active"] is None
        assert "bogus" in info["error"]

    def test_warmup_is_noop_without_numba(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert warmup() == 0.0


# ---------------------------------------------------------------------- #
# backend parity
# ---------------------------------------------------------------------- #
@pytest.fixture(params=PARITY_BACKENDS)
def backend(request, monkeypatch):
    monkeypatch.setenv(ENV_VAR, request.param)
    return request.param


class TestBackendParity:
    def test_hc_moves_match_seed_reference(self, backend):
        for seed in range(4):
            dag = random_dag(28, 0.18, seed=200 + seed)
            machine = BspMachine.uniform(4, g=3, latency=2)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = HillClimbingImproverReference(record_moves=True)
            dispatched = HillClimbingImprover(record_moves=True)
            ref_result = reference.improve(start)
            result = dispatched.improve(start)
            assert reference.last_moves == dispatched.last_moves, (backend, seed)
            assert np.array_equal(ref_result.procs, result.procs)
            assert np.array_equal(ref_result.supersteps, result.supersteps)

    def test_hc_max_steps_cut_mid_pass(self, backend):
        dag = random_dag(30, 0.15, seed=41)
        machine = BspMachine.uniform(4, g=3, latency=2)
        start = RoundRobinScheduler().schedule(dag, machine)
        unlimited = HillClimbingImprover(record_moves=True)
        unlimited.improve(start)
        assert len(unlimited.last_moves) > 2
        capped = HillClimbingImprover(max_steps=2, record_moves=True)
        capped.improve(start)
        assert capped.last_moves == unlimited.last_moves[:2]

    def test_hccs_moves_match_seed_reference(self, backend):
        for seed in range(4):
            dag = random_dag(32, 0.2, seed=300 + seed)
            machine = BspMachine.numa_hierarchy(4, delta=3, g=2, latency=1)
            start = RoundRobinScheduler().schedule(dag, machine)
            reference = CommScheduleHillClimbingReference(record_moves=True)
            dispatched = CommScheduleHillClimbing(record_moves=True)
            ref_result = reference.improve(start)
            result = dispatched.improve(start)
            assert reference.last_moves == dispatched.last_moves, (backend, seed)
            assert ref_result.comm_schedule == result.comm_schedule

    def test_coarsen_contractions_are_backend_independent(self, backend, monkeypatch):
        dag = random_dag(60, 0.08, seed=17)
        monkeypatch.setenv(ENV_VAR, "numpy")
        baseline = coarsen_dag(dag, 15, search_budget=64)
        monkeypatch.setenv(ENV_VAR, backend)
        sequence = coarsen_dag(dag, 15, search_budget=64)
        assert sequence.records == baseline.records

    def test_symbolic_fill_is_backend_independent(self, backend, monkeypatch):
        pattern = SparseMatrixPattern.random(40, 0.15, seed=5, ensure_diagonal=True)
        monkeypatch.setenv(ENV_VAR, "numpy")
        base_structures, base_parents = symbolic_fill_structure(pattern)
        monkeypatch.setenv(ENV_VAR, backend)
        structures, parents = symbolic_fill_structure(pattern)
        assert np.array_equal(parents, base_parents)
        assert len(structures) == len(base_structures)
        for got, expected in zip(structures, base_structures):
            assert np.array_equal(got, expected)

    def test_pk_coarsen_is_backend_independent(self, backend, monkeypatch):
        # no search_budget -> the auto method routes through the pk_order
        # kernel on every backend
        for seed in (17, 23):
            dag = random_dag(60, 0.1, seed=seed)
            monkeypatch.setenv(ENV_VAR, "numpy")
            baseline = coarsen_dag(dag, 15)
            monkeypatch.setenv(ENV_VAR, backend)
            sequence = coarsen_dag(dag, 15)
            assert sequence.records == baseline.records, (backend, seed)

    def test_hccs_fronts_match_serial_pass(self, backend):
        """Direct front-vs-serial pin on a state with genuinely large fronts.

        The windows use narrow feasible intervals scattered over many
        traffic rows in shuffled scan order, so the conflict scan extracts
        fronts well above the serial-tail guard — the batched kernel call
        is really exercised, and its accepted moves (and final row state)
        must equal the serial walk's exactly.
        """
        from repro.core import kernels

        def synthetic_state(rng, num_rows=64, num_windows=400, procs=4):
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

        from repro.core.kernels import numpy_impl as ni

        for seed in range(4):
            rng = np.random.default_rng(700 + seed)
            serial_state = synthetic_state(rng)
            rng = np.random.default_rng(700 + seed)
            front_state = synthetic_state(rng)
            mask = ni.hccs_front_mask(
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
# process-pool parallel_map
# ---------------------------------------------------------------------- #
def _square(payload, task):
    return payload + task * task, os.getpid()


def _explode(payload, task):
    if task == 2:
        raise ValueError("boom")
    return task


@pytest.mark.filterwarnings("error::UserWarning")
class TestProcessPoolMap:
    """``parallel_map``'s contract on a real two-worker process pool.

    A silent fallback to serial execution warns, and warnings are errors
    here, so every test below really crosses the process boundary.
    """

    def test_results_in_task_order(self):
        tasks = list(range(12))
        got = parallel_map(_square, 10, tasks, workers=2)
        assert [value for value, _ in got] == [10 + task * task for task in tasks]
        assert os.getpid() not in {pid for _, pid in got}

    def test_task_error_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_explode, None, [0, 1, 2, 3], workers=2)

    def test_return_errors_fills_failing_slot(self):
        got = parallel_map(
            _explode, None, [0, 1, 2, 3, 4], workers=2, return_errors=True
        )
        assert got[:2] == [0, 1] and got[3:] == [3, 4]
        assert isinstance(got[2], TaskError)
        assert isinstance(got[2].error, ValueError)
        assert str(got[2]) == "ValueError: boom"
