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

Once a node is ready, all its predecessors have finished, so the time its
inputs reach each of the ``P`` processors never changes again.  Both
schedulers derive these ``P`` times once, when the node becomes ready (see
:func:`_data_ready_row`), and keep them as one row of a block whose rows
are the ready nodes in *rank* order: decreasing bottom level, then
increasing node id (see :class:`_ReadyRows`).  The start time of a pair is
the larger of its data-ready time and the processor's ready time, so
ETF's whole key ``(est, -bottom level, node, processor)`` is the row-major
position of the first minimum of ``np.maximum(rows, proc_ready)``: one
``argmin`` per pick, with no tie-break pass.  BL-EST's node is row 0.

The classical schedules are converted to BSP with
:func:`repro.core.classical.classical_to_bsp`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..core.classical import ClassicalSchedule, classical_to_bsp
from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["BlEstScheduler", "EtfScheduler"]


def _ranks(dag: ComputationalDAG) -> list[int]:
    """Every node's position in the order (decreasing bottom level, increasing id)."""
    # a stable sort keeps equal bottom levels in increasing node order,
    # as np.lexsort((nodes, -bottom_levels)) would
    order = np.argsort(-dag.bottom_levels(), kind="stable")
    ranks = np.empty(dag.num_nodes, dtype=np.int64)
    ranks[order] = np.arange(dag.num_nodes)
    return ranks.tolist()


def _data_ready_row(
    preds: list[int],
    finish_times: list[float],
    procs: list[int],
    delays: list[float],
    num_procs: int,
) -> list[float]:
    """When the values of ``preds`` reach each processor, as start times need it.

    The value of predecessor ``u`` reaches a processor other than ``π(u)``
    at ``finish(u) + delay(u)``.  On ``π(u)`` it is there at ``finish(u)``,
    but that processor's ready time is already at least ``finish(u)`` (it
    ran ``u``), so the start time ``max(row, processor ready time)`` does
    not need it, and the row keeps the remote arrivals only (0 for a
    source).  Let ``top`` be the latest remote arrival, reached from
    processor ``p``: every processor but ``p`` receives ``top``, and ``p``
    receives the latest remote arrival from another processor.  A start
    time is then the maximum of the same floats as the oracle's
    ``max over u of finish(u) + delay(u) * [π(u) != q]`` and the ready
    time, and equals it exactly.
    """
    top = 0.0
    top_proc = -1
    # the latest remote arrival from a processor other than top_proc
    second = 0.0
    for u in preds:
        arrival = finish_times[u] + delays[u]
        proc = procs[u]
        if arrival > top:
            if proc != top_proc:
                second = top
            top = arrival
            top_proc = proc
        elif proc != top_proc and arrival > second:
            second = arrival
    row = [top] * num_procs
    if top_proc >= 0:
        row[top_proc] = second
    return row


class _ReadyRows:
    """The ready nodes in rank order, with their start times on every processor.

    The live rows are buffer rows ``head`` to ``head + len(nodes) - 1``;
    buffer row ``head + i`` holds, at ``times[(head + i) * P :][:P]``, the
    ``P`` data-ready times of ``nodes[i]``, whose rank is ``ranks[i]``, and
    the rows are sorted by rank.  Removing a row moves the shorter side of
    the block by one row (so taking row 0, as BL-EST does, moves nothing),
    and inserting one moves the shorter side too while there is a free row
    before the block.  ``proc_ready`` repeats the processors' ready times
    ``ready_times`` on every live row, so the start times of the live pairs
    are one elementwise maximum of two flat slices of equal length, which
    costs a fraction of a broadcast over the rows.  When the buffer is
    full, the live rows move to a new one of twice their number, so it
    holds O(max ready × P) floats, not O(n × P).
    """

    def __init__(self, num_procs: int, capacity: int) -> None:
        self.num_procs = num_procs
        self.ranks: list[int] = []
        self.nodes: list[int] = []
        self.head = 0
        self.ready_times = np.zeros(num_procs, dtype=np.float64)
        self.times = np.zeros(max(capacity, 16) * num_procs, dtype=np.float64)
        self.proc_ready = np.zeros_like(self.times)

    def start_times(self, rows: int | None = None) -> np.ndarray:
        """The start times of the (node, processor) pairs of the first ``rows``
        live rows (all by default), row-major."""
        start = self.head * self.num_procs
        end = start + (len(self.nodes) if rows is None else rows) * self.num_procs
        return np.maximum(self.times[start:end], self.proc_ready[start:end])

    def set_proc_ready(self, proc: int, time: float) -> None:
        """Processor ``proc`` is free from ``time`` on."""
        self.ready_times[proc] = time
        start = self.head * self.num_procs + proc
        self.proc_ready[start : start + len(self.nodes) * self.num_procs : self.num_procs] = time

    def insert(self, rank: int, node: int, row: list[float]) -> None:
        """Add ``node`` with data-ready times ``row`` at its rank position."""
        num_procs = self.num_procs
        size = len(self.nodes)
        if (self.head + size + 1) * num_procs > self.times.size:
            start = self.head * num_procs
            times = np.zeros(2 * (size + 1) * num_procs, dtype=np.float64)
            times[: size * num_procs] = self.times[start : start + size * num_procs]
            self.times = times
            self.proc_ready = np.tile(self.ready_times, 2 * (size + 1))
            self.head = 0
        index = bisect_left(self.ranks, rank)
        start = self.head * num_procs
        at = start + index * num_procs
        end = start + size * num_procs
        if self.head and index < size - index:
            # the rows before it move up into the free row before the block
            self.times[start - num_procs : at - num_procs] = self.times[start:at]
            self.proc_ready[start - num_procs : start] = self.ready_times
            self.head -= 1
            at -= num_procs
        else:
            if index < size:
                self.times[at + num_procs : end + num_procs] = self.times[at:end]
            self.proc_ready[end : end + num_procs] = self.ready_times
        self.times[at : at + num_procs] = row
        self.ranks.insert(index, rank)
        self.nodes.insert(index, node)

    def remove(self, index: int) -> None:
        """Drop row ``index``, closing the gap from its shorter side."""
        num_procs = self.num_procs
        size = len(self.nodes)
        start = self.head * num_procs
        at = start + index * num_procs
        if index < size - 1 - index:
            if index:
                self.times[start + num_procs : at + num_procs] = self.times[start:at]
            self.head += 1
        else:
            end = start + size * num_procs
            self.times[at : end - num_procs] = self.times[at + num_procs : end]
        del self.ranks[index]
        del self.nodes[index]


class _ListSchedulerBase(Scheduler):
    """Shared machinery of the BL-EST and ETF baselines.

    The simulation runs on Python lists read once per request from the
    DAG's CSR arrays; only the ready block and the processors' ready times
    are numpy arrays.  A node's data-ready row is built by
    :func:`_data_ready_row` when its last predecessor is scheduled.
    Subclasses choose a ready row and a processor in :meth:`_pick`.
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
        procs = [0] * n
        start_times = [0.0] * n
        finish_times = [0.0] * n
        work = dag.work_weights.tolist()
        delays = self._communication_delays(dag, machine).tolist()
        ranks = _ranks(dag)
        succ_indptr = dag.succ_indptr.tolist()
        succ_indices = dag.succ_indices.tolist()
        pred_indptr = dag.pred_indptr.tolist()
        pred_indices = dag.pred_indices.tolist()
        remaining_preds = dag.in_degrees().tolist()

        sources = dag.sources()
        ready = _ReadyRows(num_procs, len(sources))
        # in rank order, each source is appended after the others
        for source in sorted(sources, key=ranks.__getitem__):
            ready.insert(ranks[source], source, [0.0] * num_procs)
        scheduled = 0

        while ready.nodes:
            index, proc, est = self._pick(ready)
            node = ready.nodes[index]
            ready.remove(index)
            finish = est + work[node]
            procs[node] = proc
            start_times[node] = est
            finish_times[node] = finish
            ready.set_proc_ready(proc, finish)
            scheduled += 1
            for succ in succ_indices[succ_indptr[node] : succ_indptr[node + 1]]:
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    preds = pred_indices[pred_indptr[succ] : pred_indptr[succ + 1]]
                    row = _data_ready_row(preds, finish_times, procs, delays, num_procs)
                    ready.insert(ranks[succ], succ, row)

        if scheduled != n:
            raise RuntimeError("list scheduler failed to schedule every node")
        return ClassicalSchedule(
            dag=dag,
            num_procs=num_procs,
            procs=np.array(procs, dtype=np.int64),
            start_times=np.array(start_times, dtype=np.float64),
            finish_times=np.array(finish_times, dtype=np.float64),
        )

    def _pick(self, ready: _ReadyRows) -> tuple[int, int, float]:
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
    ties): row 0 of the rank-ordered ready block.  Its processor comes
    from a sequential scan of its row that moves to a later processor only
    when that start time is lower by more than ``1e-12``.
    """

    name = "bl_est"

    def _pick(self, ready):
        best_proc = 0
        best_est = float("inf")
        for proc, est in enumerate(ready.start_times(1).tolist()):
            if est < best_est - 1e-12:
                best_est = est
                best_proc = proc
        return 0, best_proc, best_est


class EtfScheduler(_ListSchedulerBase):
    """Earliest Task First: globally earliest (node, processor) start time.

    The ready rows are in rank order and each row's entries in processor
    order, so the first minimum of the block's start times in row-major
    order is the least key ``(est, -bottom level, node, processor)``.
    """

    name = "etf"

    def _pick(self, ready):
        est = ready.start_times()
        flat = int(est.argmin())
        index, proc = divmod(flat, ready.num_procs)
        return index, proc, est.item(flat)
