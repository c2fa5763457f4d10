"""``ILPinit``: batch-by-batch ILP construction of an initial schedule (paper §4.2, A.4).

The DAG is processed in topological order.  Every batch of nodes is assigned
by one window ILP spanning three fresh supersteps; the batch size is grown
until the estimated model size ``|V0| · 3 · P²`` reaches a threshold (2 000
in the paper).  Nodes of earlier batches are fixed; successors of the
current batch are not assigned yet and are simply ignored by the window
formulation, exactly as the paper describes.

Should an individual batch ILP fail (time-out without a feasible point), the
batch falls back to placing all of its nodes on one processor in the first
superstep of its window — always valid because every predecessor lives in an
earlier superstep and intra-batch edges stay on the same processor.

Every batch model is built in window-local coordinates, so on iterative and
banded DAGs many batches build the very same model.  One
:meth:`IlpInitScheduler.schedule` call solves each distinct model once (see
:meth:`WindowIlp.solve`'s ``memo``).
"""

from __future__ import annotations

import numpy as np

from ...core.comm import CommStep
from ...core.dag import ComputationalDAG
from ...core.machine import BspMachine
from ...core.schedule import BspSchedule
from ..base import Budget, Scheduler
from .backend import MilpSolution
from .window import WindowIlp, estimate_window_variables

__all__ = ["IlpInitScheduler"]


class IlpInitScheduler(Scheduler):
    """ILP-based initialisation heuristic.

    Parameters
    ----------
    max_variables:
        Estimated-size threshold used when growing a batch (paper: 2 000).
    supersteps_per_batch:
        Number of fresh supersteps each batch may use (paper: 3).
    time_limit_per_batch:
        MILP time limit per batch (seconds).
    node_limit:
        Deterministic branch-and-bound node cap per batch solve; a
        :class:`~repro.schedulers.Budget` with ``ilp_node_limit`` overrides
        it per invocation.

    Each :meth:`schedule` call keeps its own memo of solved batch models,
    keyed by :meth:`~repro.schedulers.ilp.MilpProblem.key`: a batch whose
    model equals an earlier batch's reuses that solution instead of calling
    HiGHS again.  HiGHS is deterministic on identical input, so the
    schedule is the same as without the memo.  A solve stopped by its time
    limit is not kept, and the memo is dropped when the call returns.
    """

    name = "ilp_init"

    def __init__(
        self,
        max_variables: int = 2000,
        supersteps_per_batch: int = 3,
        time_limit_per_batch: float | None = 15.0,
        node_limit: int | None = None,
    ) -> None:
        self.max_variables = max_variables
        self.supersteps_per_batch = supersteps_per_batch
        self.time_limit_per_batch = time_limit_per_batch
        self.node_limit = node_limit

    # ------------------------------------------------------------------ #
    def _batches(self, dag: ComputationalDAG, num_procs: int) -> list[list[int]]:
        """Split the topological order into batches below the size threshold."""
        order = dag.topological_order()
        batches: list[list[int]] = []
        current: list[int] = []
        for node in order:
            current.append(node)
            estimate = estimate_window_variables(
                len(current) + 1, self.supersteps_per_batch, num_procs
            )
            if estimate > self.max_variables:
                batches.append(current)
                current = []
        if current:
            batches.append(current)
        return batches

    @staticmethod
    def _partial_context_comm(
        dag: ComputationalDAG,
        procs: np.ndarray,
        supersteps: np.ndarray,
        assigned: np.ndarray,
    ) -> list[CommStep]:
        """Context steps among already-assigned nodes (seeds boundary presence).

        One step per cross-processor edge ``u -> w``, sending ``u`` in the
        superstep before ``w``'s; a value needed by several successors on
        one processor gets several steps, so these are not the lazy
        transfers.  Every assigned node lies in an earlier batch, so all
        steps fall before the window and only mark where a boundary value
        is present.
        """
        steps: list[CommStep] = []
        for u in dag.nodes():
            if not assigned[u]:
                continue
            for w in dag.successors(u):
                if not assigned[w]:
                    continue
                if procs[u] != procs[w]:
                    steps.append(
                        CommStep(u, int(procs[u]), int(procs[w]), int(supersteps[w]) - 1)
                    )
        return steps

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        n = dag.num_nodes
        if n == 0:
            return BspSchedule(dag, machine, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        budget = budget or Budget()

        procs = np.full(n, -1, dtype=np.int64)
        supersteps = np.full(n, -1, dtype=np.int64)
        assigned = np.zeros(n, dtype=bool)
        memo: dict[bytes, MilpSolution] = {}

        for batch_index, batch in enumerate(self._batches(dag, machine.num_procs)):
            window_low = batch_index * self.supersteps_per_batch
            window_high = window_low + self.supersteps_per_batch - 1
            solved = False
            if not budget.expired():
                time_limit, node_limit = budget.ilp_limits(
                    self.time_limit_per_batch, self.node_limit
                )
                context = self._partial_context_comm(dag, procs, supersteps, assigned)
                ilp = WindowIlp(
                    dag,
                    machine,
                    procs,
                    supersteps,
                    reassign=batch,
                    window=(window_low, window_high),
                    context_comm=context,
                )
                result = ilp.solve(
                    time_limit=time_limit, node_limit=node_limit, memo=memo
                )
                if result.feasible:
                    for v in batch:
                        procs[v] = result.procs[v]
                        supersteps[v] = result.supersteps[v]
                        assigned[v] = True
                    solved = True
            if not solved:
                # fallback: whole batch on processor 0 in the window's first superstep
                for v in batch:
                    procs[v] = 0
                    supersteps[v] = window_low
                    assigned[v] = True

        return BspSchedule(dag, machine, procs, supersteps).compacted()
