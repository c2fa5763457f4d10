"""Classical (time-indexed) schedules and their conversion to BSP.

The Cilk, BL-EST and ETF baselines assign every node a processor and a
concrete *start time*.  Appendix A.1 of the paper describes how such a
classical schedule is converted into a BSP schedule: process nodes in order
of start time and close the current computation phase (start a new
superstep) whenever the next node to execute has a direct predecessor on a
*different* processor that is not yet assigned to an earlier superstep.

Implementation notes
--------------------
The conversion is driven from the DAG's CSR edge arrays.  The superstep
counter of the appendix only ever advances by one, and it advances at node
``v`` exactly when ``v`` has a cross-processor predecessor inside the
current superstep — i.e. a predecessor whose position in the start-time
order is at or after the position where the current superstep began.  So
one vectorized pass computes, for every node, the latest position of any
earlier-starting cross-processor predecessor, and a single linear sweep
over the order replays the counter.  The seed per-predecessor walk is kept
as ``classical_to_bsp_ref`` in ``tests/oracles/core.py`` for differential
testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dag import ComputationalDAG
from .exceptions import ScheduleError
from .machine import BspMachine
from .schedule import BspSchedule

__all__ = ["ClassicalSchedule", "classical_to_bsp", "conversion_supersteps"]


@dataclass
class ClassicalSchedule:
    """A classical schedule: per-node processor, start time and finish time.

    ``finish[v]`` defaults to ``start[v] + w(v)`` when not supplied.
    """

    dag: ComputationalDAG
    num_procs: int
    procs: np.ndarray
    start_times: np.ndarray
    finish_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.procs = np.asarray(self.procs, dtype=np.int64)
        self.start_times = np.asarray(self.start_times, dtype=np.float64)
        n = self.dag.num_nodes
        if self.procs.shape != (n,) or self.start_times.shape != (n,):
            raise ScheduleError("classical schedule arrays must have length n")
        if self.finish_times is None:
            self.finish_times = self.start_times + self.dag.work_weights
        else:
            self.finish_times = np.asarray(self.finish_times, dtype=np.float64)
            if self.finish_times.shape != (n,):
                raise ScheduleError("finish_times must have length n")

    @property
    def makespan(self) -> float:
        """Completion time of the last node (0 for an empty DAG)."""
        if self.dag.num_nodes == 0:
            return 0.0
        return float(self.finish_times.max())

    def validate(self) -> None:
        """Check precedence (by start/finish time) and non-overlap per processor.

        Both checks are single vectorized passes: precedence as one mask over
        the edge arrays, per-processor overlap by comparing adjacent entries
        of the nodes sorted by ``(processor, start time, node)``.
        """
        dag = self.dag
        src, dst = dag.edge_arrays()
        if src.size:
            bad = self.finish_times[src] > self.start_times[dst] + 1e-9
            if bad.any():
                i = int(np.argmax(bad))
                raise ScheduleError(
                    f"edge ({int(src[i])},{int(dst[i])}): successor starts before "
                    "predecessor finishes"
                )
        n = dag.num_nodes
        if n < 2:
            return
        order = np.lexsort((np.arange(n), self.start_times, self.procs))
        same_proc = self.procs[order][1:] == self.procs[order][:-1]
        overlap = same_proc & (
            self.finish_times[order][:-1] > self.start_times[order][1:] + 1e-9
        )
        if overlap.any():
            i = int(np.argmax(overlap))
            raise ScheduleError(
                f"nodes {int(order[i])} and {int(order[i + 1])} overlap in time "
                f"on processor {int(self.procs[order[i]])}"
            )


def classical_to_bsp(
    classical: ClassicalSchedule, machine: BspMachine
) -> BspSchedule:
    """Convert a classical schedule into a BSP schedule (Appendix A.1).

    Nodes are visited in order of increasing start time.  A node can join
    the current superstep as long as all of its cross-processor direct
    predecessors are already placed in *earlier* supersteps; otherwise the
    current computation phase is closed and a new superstep begins.  The
    resulting schedule keeps the processor assignment of the classical
    schedule and uses the lazy communication schedule.
    """
    dag = classical.dag
    if machine.num_procs < classical.num_procs:
        raise ScheduleError(
            "machine has fewer processors than the classical schedule uses"
        )
    supersteps = conversion_supersteps(dag, classical.procs, classical.start_times)
    return BspSchedule(dag, machine, classical.procs, supersteps)


def conversion_supersteps(
    dag: ComputationalDAG, procs: np.ndarray, start_times: np.ndarray
) -> np.ndarray:
    """The Appendix A.1 superstep numbering of a classical assignment.

    One vectorized pass over the edge arrays computes, for every node, the
    latest start-order position of an earlier-starting cross-processor
    predecessor (the *bump bound*); the superstep counter then advances at
    exactly the positions where the bound reaches into the current run.
    Those bump positions are found with repeated ``argmax`` probes over the
    bound array (one numpy scan per superstep instead of one Python step
    per node); schedules that fragment into very many supersteps fall back
    to the linear counter sweep (:func:`_superstep_bumps_sweep`) once the
    probe count stops paying for itself.  Differential-tested against the
    seed per-predecessor walk (``classical_to_bsp_ref`` in
    ``tests/oracles/core.py``).
    """
    n = dag.num_nodes
    supersteps = np.zeros(n, dtype=np.int64)
    if n == 0:
        return supersteps

    order = np.argsort(start_times, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)

    # For every node, the latest start-order position of a cross-processor
    # predecessor that starts earlier.  The superstep counter advances at a
    # node exactly when that position falls inside the run of nodes already
    # assigned to the current superstep.
    latest_cross_pred = np.full(n, -1, dtype=np.int64)
    src, dst = dag.edge_arrays()
    if src.size:
        earlier_cross = (procs[src] != procs[dst]) & (rank[src] < rank[dst])
        np.maximum.at(latest_cross_pred, dst[earlier_cross], rank[src][earlier_cross])

    bound = latest_cross_pred[order]
    bumps = _superstep_bumps_argmax(bound)
    # superstep of a position = number of bump positions at or before it
    supersteps[order] = np.searchsorted(
        bumps, np.arange(n, dtype=np.int64), side="right"
    )
    return supersteps


def _superstep_bumps_argmax(bound: np.ndarray) -> np.ndarray:
    """Positions where the superstep counter advances, by repeated ``argmax``.

    The next bump after a bump at ``q`` is the first position ``p > q``
    with ``bound[p] >= q``; each probe is one vectorized comparison plus an
    ``argmax`` over the remaining suffix.  The probes are budgeted by the
    *total number of elements scanned* (a few multiples of ``n``), not by
    probe count — a schedule that fragments early would otherwise pay a
    full-suffix scan per superstep — and the remainder is finished with the
    linear sweep once the budget is spent.
    """
    n = bound.size
    bumps: list[int] = []
    position, run_start = 0, 0
    scan_budget = 4 * n + 64
    while position < n and scan_budget > 0:
        suffix = bound[position:] >= run_start
        scan_budget -= suffix.size
        offset = int(np.argmax(suffix))
        if not suffix[offset]:
            return np.array(bumps, dtype=np.int64)
        run_start = position + offset
        bumps.append(run_start)
        position = run_start + 1
    if position < n:
        bumps.extend(_superstep_bumps_sweep(bound, position, run_start))
    return np.array(bumps, dtype=np.int64)


def _superstep_bumps_sweep(
    bound: np.ndarray, position: int = 0, run_start: int = 0
) -> list[int]:
    """The seed linear counter sweep (also the fallback tail of the argmax path)."""
    bumps: list[int] = []
    for p, b in enumerate(bound[position:].tolist(), start=position):
        if b >= run_start:
            bumps.append(p)
            run_start = p
    return bumps
