"""BL-EST and ETF list-scheduling baselines (paper §4.1 and Appendix A.1).

Both schedulers build a classical (time-indexed) schedule that accounts for
communication *volume*: when a node's predecessor was computed on a
different processor, the data only becomes available after a delay of
``g * c(u) * λ̄`` where ``λ̄`` is the average NUMA multiplier over all pairs
of distinct processors (the paper folds NUMA into this single average for
the baselines, Appendix A.1).

* **BL-EST** repeatedly picks the ready node with the largest *bottom level*
  (longest outgoing work path) and assigns it to the processor offering the
  earliest start time (EST).
* **ETF** (Earliest Task First) considers every (ready node, processor)
  pair and schedules the pair with the globally earliest start time,
  breaking ties towards larger bottom level.

The classical schedules are converted to BSP with
:func:`repro.core.classical.classical_to_bsp`.
"""

from __future__ import annotations

import numpy as np

from ..core.classical import ClassicalSchedule, classical_to_bsp
from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["BlEstScheduler", "EtfScheduler"]


class _ListSchedulerBase(Scheduler):
    """Shared machinery of the BL-EST and ETF baselines.

    The inner loops read neighbourhoods as zero-copy CSR slices and compute
    the data-ready time of a candidate ``(node, proc)`` pair with one
    vectorized expression over the predecessor slice; the per-predecessor
    communication delays ``g * c(u) * λ̄`` are precomputed once per run.
    """

    def _communication_delays(
        self, dag: ComputationalDAG, machine: BspMachine
    ) -> np.ndarray:
        return machine.g * dag.comm_weights * machine.average_numa_multiplier

    def _earliest_start(
        self,
        dag: ComputationalDAG,
        node: int,
        proc: int,
        procs: np.ndarray,
        finish_times: np.ndarray,
        proc_ready: np.ndarray,
        delays: np.ndarray,
    ) -> float:
        preds = dag.pred(node)
        data_ready = 0.0
        if preds.size:
            arrivals = finish_times[preds] + delays[preds] * (procs[preds] != proc)
            data_ready = float(arrivals.max())
        return max(data_ready, float(proc_ready[proc]))

    def classical_schedule(
        self, dag: ComputationalDAG, machine: BspMachine
    ) -> ClassicalSchedule:
        """Build the classical schedule; implemented by subclasses via ``_pick``."""
        n = dag.num_nodes
        num_procs = machine.num_procs
        procs = np.zeros(n, dtype=np.int64)
        start_times = np.zeros(n, dtype=np.float64)
        finish_times = np.zeros(n, dtype=np.float64)
        proc_ready = np.zeros(num_procs, dtype=np.float64)
        bottom_levels = dag.bottom_levels()
        delays = self._communication_delays(dag, machine)

        remaining_preds = dag.in_degrees().copy()
        ready = set(dag.sources())
        scheduled: list[int] = []

        while ready:
            node, proc, est = self._pick(
                dag, ready, bottom_levels, procs, finish_times, proc_ready, delays
            )
            ready.discard(node)
            procs[node] = proc
            start_times[node] = est
            finish_times[node] = est + dag.work(node)
            proc_ready[proc] = finish_times[node]
            scheduled.append(node)
            for succ in dag.succ(node).tolist():
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    ready.add(succ)

        if len(scheduled) != n:
            raise RuntimeError("list scheduler failed to schedule every node")
        return ClassicalSchedule(
            dag=dag,
            num_procs=num_procs,
            procs=procs,
            start_times=start_times,
            finish_times=finish_times,
        )

    def _pick(
        self,
        dag: ComputationalDAG,
        ready: set[int],
        bottom_levels: np.ndarray,
        procs: np.ndarray,
        finish_times: np.ndarray,
        proc_ready: np.ndarray,
        delays: np.ndarray,
    ) -> tuple[int, int, float]:
        raise NotImplementedError

    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        classical = self.classical_schedule(dag, machine)
        return classical_to_bsp(classical, machine)


class BlEstScheduler(_ListSchedulerBase):
    """Bottom-Level priority, Earliest-Start-Time processor selection."""

    name = "bl_est"

    def _pick(self, dag, ready, bottom_levels, procs, finish_times, proc_ready, delays):
        # highest bottom level first; ties broken by node index for determinism
        node = max(ready, key=lambda v: (bottom_levels[v], -v))
        best_proc = 0
        best_est = float("inf")
        for proc in range(proc_ready.shape[0]):
            est = self._earliest_start(
                dag, node, proc, procs, finish_times, proc_ready, delays
            )
            if est < best_est - 1e-12:
                best_est = est
                best_proc = proc
        return node, best_proc, best_est


class EtfScheduler(_ListSchedulerBase):
    """Earliest Task First: globally earliest (node, processor) start time."""

    name = "etf"

    def _pick(self, dag, ready, bottom_levels, procs, finish_times, proc_ready, delays):
        best: tuple[float, float, int, int] | None = None
        for node in sorted(ready):
            for proc in range(proc_ready.shape[0]):
                est = self._earliest_start(
                    dag, node, proc, procs, finish_times, proc_ready, delays
                )
                key = (est, -float(bottom_levels[node]), node, proc)
                if best is None or key < best:
                    best = key
        assert best is not None
        est, _, node, proc = best
        return node, proc, est
