"""BL-EST and ETF list-scheduling baselines (paper §4.1 and Appendix A.1).

Both schedulers build a classical (time-indexed) schedule that accounts for
communication *volume*: when a node's predecessor was computed on a
different processor, the data only becomes available after a delay of
``g * c(u) * λ̄`` where ``λ̄`` is the average NUMA multiplier over all pairs
of distinct processors (the paper folds NUMA into this single average for
the baselines, Appendix A.1).

* **BL-EST** repeatedly picks the ready node with the largest *bottom level*
  (longest outgoing work path), smaller node id on ties, and assigns it to
  the processor offering the earliest start time (EST).
* **ETF** (Earliest Task First) considers every (ready node, processor)
  pair and schedules the pair with the globally earliest start time; ties
  go to the larger bottom level, then the smaller node id, then the
  smaller processor id.

Once a node is ready, all its predecessors have finished, so its
data-ready time on each of the ``P`` processors never changes again.  Both
schedulers therefore derive these ``P`` times once, when the node becomes
ready, and keep them as one row of a ready-aligned block (see
:class:`_ReadyRows`).  The start time of a pair is the larger of its
data-ready time and the processor's ready time, so a pick reads the whole
block with one vectorized maximum.

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


class _ReadyRows:
    """The ready nodes and their per-processor data-ready times.

    Row ``i`` of ``rows`` holds the ``P`` data-ready times of ``nodes[i]``;
    only the first ``size`` rows are live.  A removed row is overwritten by
    the last live row, so the block stays dense and holds
    O(max ready × P) floats, not O(n × P).  The capacity doubles when full.
    """

    def __init__(self, num_procs: int, capacity: int) -> None:
        capacity = max(capacity, 16)
        self.nodes = np.zeros(capacity, dtype=np.int64)
        self.rows = np.zeros((capacity, num_procs), dtype=np.float64)
        self.size = 0

    def push(self, node: int) -> np.ndarray:
        """Append ``node`` and return its row, which the caller fills."""
        if self.size == self.nodes.size:
            self.nodes = np.concatenate((self.nodes, np.zeros_like(self.nodes)))
            self.rows = np.concatenate((self.rows, np.zeros_like(self.rows)))
        self.nodes[self.size] = node
        self.size += 1
        return self.rows[self.size - 1]

    def remove(self, index: int) -> None:
        """Drop row ``index`` by moving the last live row into its slot."""
        last = self.size - 1
        if index != last:
            self.nodes[index] = self.nodes[last]
            self.rows[index] = self.rows[last]
        self.size = last


class _ListSchedulerBase(Scheduler):
    """Shared machinery of the BL-EST and ETF baselines.

    The data-ready row of a node is computed with one vectorized expression
    over its predecessor slice when its last predecessor is scheduled: on
    processor ``q`` the value of predecessor ``u`` arrives at
    ``finish(u) + g * c(u) * λ̄ * [π(u) != q]``, and the row is the maximum
    over the predecessors (0 for a source).  Subclasses choose a ready row
    and a processor in :meth:`_pick`.
    """

    def _communication_delays(
        self, dag: ComputationalDAG, machine: BspMachine
    ) -> np.ndarray:
        return machine.g * dag.comm_weights * machine.average_numa_multiplier

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
        proc_ids = np.arange(num_procs)
        remaining_preds = dag.in_degrees().tolist()

        sources = dag.sources()
        ready = _ReadyRows(num_procs, len(sources))
        for source in sources:
            ready.push(source)[:] = 0.0
        scheduled = 0

        while ready.size:
            index, proc, est = self._pick(ready, proc_ready, bottom_levels)
            node = int(ready.nodes[index])
            ready.remove(index)
            finish = est + dag.work(node)
            procs[node] = proc
            start_times[node] = est
            finish_times[node] = finish
            proc_ready[proc] = finish
            scheduled += 1
            for succ in dag.succ(node).tolist():
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    preds = dag.pred(succ)
                    arrivals = finish_times[preds, None] + delays[preds, None] * (
                        procs[preds, None] != proc_ids
                    )
                    arrivals.max(axis=0, out=ready.push(succ))

        if scheduled != n:
            raise RuntimeError("list scheduler failed to schedule every node")
        return ClassicalSchedule(
            dag=dag,
            num_procs=num_procs,
            procs=procs,
            start_times=start_times,
            finish_times=finish_times,
        )

    def _pick(
        self, ready: _ReadyRows, proc_ready: np.ndarray, bottom_levels: np.ndarray
    ) -> tuple[int, int, float]:
        """``(ready row index, processor, start time)`` of the next assignment."""
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
    """Bottom-Level priority, Earliest-Start-Time processor selection.

    The node is the ready node of largest bottom level (smaller id on
    ties).  Its processor comes from a sequential scan of its row that
    moves to a later processor only when that start time is lower by more
    than ``1e-12``.
    """

    name = "bl_est"

    def _pick(self, ready, proc_ready, bottom_levels):
        nodes = ready.nodes[: ready.size]
        levels = bottom_levels[nodes]
        tied = np.flatnonzero(levels == levels.max())
        index = int(tied[nodes[tied].argmin()])
        best_proc = 0
        best_est = float("inf")
        for proc, est in enumerate(np.maximum(ready.rows[index], proc_ready).tolist()):
            if est < best_est - 1e-12:
                best_est = est
                best_proc = proc
        return index, best_proc, best_est


class EtfScheduler(_ListSchedulerBase):
    """Earliest Task First: globally earliest (node, processor) start time.

    One minimum over the ready block's start times picks the pair.  Only
    when several pairs tie exactly does a lexsort order them by
    (-bottom level, node, processor), so the order is that of the key
    ``(est, -bottom level, node, processor)``.
    """

    name = "etf"

    def _pick(self, ready, proc_ready, bottom_levels):
        est = np.maximum(ready.rows[: ready.size], proc_ready)
        best = est.min()
        rows, cols = (est == best).nonzero()
        tie = 0
        if rows.size > 1:
            nodes = ready.nodes[rows]
            tie = np.lexsort((cols, nodes, -bottom_levels[nodes]))[0]
        return int(rows[tie]), int(cols[tie]), float(best)
