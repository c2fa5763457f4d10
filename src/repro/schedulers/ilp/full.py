"""``ILPfull``: the whole scheduling problem as one ILP (paper §4.4).

The formulation follows the FS model of [28] via the shared window
formulation (:mod:`repro.schedulers.ilp.window`) with the window spanning
every superstep of the incumbent schedule and ``V0`` containing every node.
As in the paper, the method is only attempted when the estimated number of
variables stays below a threshold (20 000 by default); larger instances are
left to ``ILPpart``.
"""

from __future__ import annotations

from ...core.schedule import BspSchedule
from ..base import Budget, ScheduleImprover
from .window import WindowIlp, estimate_window_variables

__all__ = ["IlpFullImprover"]

_EPS = 1e-9


class IlpFullImprover(ScheduleImprover):
    """Re-optimise the entire assignment with a single window ILP.

    Parameters
    ----------
    max_variables:
        Skip the solve when ``n · S · P²`` exceeds this bound (paper: 20 000).
    time_limit:
        Wall-clock limit handed to the MILP solver (seconds).
    node_limit:
        Deterministic branch-and-bound node cap (``None`` = unlimited); a
        :class:`~repro.schedulers.Budget` with ``ilp_node_limit`` overrides
        it per invocation.
    """

    name = "ilp_full"

    def __init__(
        self,
        max_variables: int = 20000,
        time_limit: float | None = 60.0,
        node_limit: int | None = None,
    ) -> None:
        self.max_variables = max_variables
        self.time_limit = time_limit
        self.node_limit = node_limit

    def applicable(self, schedule: BspSchedule) -> bool:
        """Whether the instance is small enough for the full ILP."""
        estimate = estimate_window_variables(
            schedule.dag.num_nodes,
            max(schedule.num_supersteps, 1),
            schedule.machine.num_procs,
        )
        return estimate <= self.max_variables

    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        if schedule.dag.num_nodes == 0 or not self.applicable(schedule):
            return schedule
        budget = budget or Budget()
        time_limit, node_limit = budget.ilp_limits(self.time_limit, self.node_limit)

        window = (0, max(schedule.num_supersteps - 1, 0))
        ilp = WindowIlp(
            schedule.dag,
            schedule.machine,
            schedule.procs,
            schedule.supersteps,
            reassign=list(schedule.dag.nodes()),
            window=window,
            context_comm=None if schedule.uses_lazy_comm else schedule.comm_schedule,
        )
        result = ilp.solve(time_limit=time_limit, node_limit=node_limit)
        if not result.feasible:
            return schedule
        procs = schedule.procs.copy()
        supersteps = schedule.supersteps.copy()
        for v, p in result.procs.items():
            procs[v] = p
        for v, s in result.supersteps.items():
            supersteps[v] = s
        candidate = BspSchedule(
            schedule.dag, schedule.machine, procs, supersteps
        ).compacted()
        return candidate if candidate.cost() < schedule.cost() - _EPS else schedule
