"""Trivial reference schedulers.

* :class:`TrivialScheduler` — everything on one processor in one superstep.
  This is the "trivial solution" the paper compares against in the
  communication-dominated regime (§7.3): it pays no communication or
  latency beyond a single superstep, only the full serial work.
* :class:`RoundRobinScheduler` — a deliberately naive level-by-level
  round-robin assignment, useful as a sanity baseline in tests.
"""

from __future__ import annotations

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["TrivialScheduler", "RoundRobinScheduler"]


class TrivialScheduler(Scheduler):
    """Assigns every node to processor 0 in superstep 0."""

    name = "trivial"

    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        return BspSchedule.trivial(dag, machine)


class RoundRobinScheduler(Scheduler):
    """One superstep per DAG level, nodes distributed round-robin within the level."""

    name = "round_robin"

    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        levels = dag.levels()
        procs = np.zeros(dag.num_nodes, dtype=np.int64)
        counter = 0
        for v in dag.topological_order():
            procs[v] = counter % machine.num_procs
            counter += 1
        return BspSchedule(dag, machine, procs, levels)
