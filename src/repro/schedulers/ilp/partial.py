"""``ILPpart``: iterative window-by-window ILP improvement (paper §4.4, Appendix A.4).

The supersteps of the incumbent schedule are split into disjoint intervals,
built from back to front; each interval is grown until the estimated ILP
size ``|V0| · |S0| · P²`` exceeds a threshold (4 000 in the paper).  The
nodes of every interval are then re-optimised by one window ILP, keeping the
rest of the schedule fixed, and the result is accepted only when the exact
evaluated cost improves.  Windows are modelled in window-local coordinates,
so one :meth:`IlpPartialImprover.improve` call solves each distinct window
model once (see :meth:`WindowIlp.solve`'s ``memo``).
"""

from __future__ import annotations

from ...core.schedule import BspSchedule
from ..base import Budget, ScheduleImprover
from .backend import MilpSolution
from .window import WindowIlp, estimate_window_variables

__all__ = ["IlpPartialImprover"]

_EPS = 1e-9


class IlpPartialImprover(ScheduleImprover):
    """Superstep-interval ILP polishing.

    Parameters
    ----------
    max_variables:
        Size threshold used when growing an interval (paper: 4 000).
    time_limit_per_window:
        MILP time limit for every interval (seconds).
    max_rounds:
        How many sweeps over the whole schedule to perform.
    node_limit:
        Deterministic branch-and-bound node cap per interval solve; a
        :class:`~repro.schedulers.Budget` with ``ilp_node_limit`` overrides
        it per invocation.

    Each :meth:`improve` call keeps its own memo of solved window models,
    keyed by :meth:`~repro.schedulers.ilp.MilpProblem.key`, across all of
    its rounds: a window whose model equals an earlier one's reuses that
    solution instead of calling HiGHS again, which leaves the result
    unchanged because HiGHS is deterministic on identical input.  A solve
    stopped by its time limit is not kept, and the memo is dropped when the
    call returns.
    """

    name = "ilp_partial"

    def __init__(
        self,
        max_variables: int = 4000,
        time_limit_per_window: float | None = 20.0,
        max_rounds: int = 1,
        node_limit: int | None = None,
    ) -> None:
        self.max_variables = max_variables
        self.time_limit_per_window = time_limit_per_window
        self.max_rounds = max_rounds
        self.node_limit = node_limit

    # ------------------------------------------------------------------ #
    def _intervals(self, schedule: BspSchedule) -> list[tuple[int, int]]:
        """Disjoint superstep intervals, grown from the back until the size bound."""
        num_procs = schedule.machine.num_procs
        nodes_per_step = [
            len(schedule.nodes_in_superstep(s)) for s in range(schedule.num_supersteps)
        ]
        intervals: list[tuple[int, int]] = []
        high = schedule.num_supersteps - 1
        while high >= 0:
            low = high
            node_count = nodes_per_step[high]
            while low - 1 >= 0:
                candidate_nodes = node_count + nodes_per_step[low - 1]
                estimate = estimate_window_variables(
                    candidate_nodes, high - (low - 1) + 1, num_procs
                )
                if estimate > self.max_variables:
                    break
                low -= 1
                node_count = candidate_nodes
            intervals.append((low, high))
            high = low - 1
        return intervals

    # ------------------------------------------------------------------ #
    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        if schedule.dag.num_nodes == 0 or schedule.num_supersteps == 0:
            return schedule
        budget = budget or Budget()
        incumbent = schedule
        memo: dict[bytes, MilpSolution] = {}

        for _ in range(self.max_rounds):
            if budget.expired():
                break
            improved_this_round = False
            for low, high in self._intervals(incumbent):
                if budget.expired():
                    break
                reassign = [
                    v
                    for v in incumbent.dag.nodes()
                    if low <= incumbent.superstep_of(v) <= high
                ]
                if not reassign:
                    continue
                estimate = estimate_window_variables(
                    len(reassign), high - low + 1, incumbent.machine.num_procs
                )
                if estimate > 4 * self.max_variables:
                    continue  # a single superstep can already be too large; skip it
                time_limit, node_limit = budget.ilp_limits(
                    self.time_limit_per_window, self.node_limit
                )
                ilp = WindowIlp(
                    incumbent.dag,
                    incumbent.machine,
                    incumbent.procs,
                    incumbent.supersteps,
                    reassign=reassign,
                    window=(low, high),
                    context_comm=None if incumbent.uses_lazy_comm else incumbent.comm_schedule,
                )
                result = ilp.solve(
                    time_limit=time_limit, node_limit=node_limit, memo=memo
                )
                if not result.feasible:
                    continue
                procs = incumbent.procs.copy()
                supersteps = incumbent.supersteps.copy()
                for v, p in result.procs.items():
                    procs[v] = p
                for v, s in result.supersteps.items():
                    supersteps[v] = s
                candidate = BspSchedule(
                    incumbent.dag, incumbent.machine, procs, supersteps
                )
                if candidate.cost() < incumbent.cost() - _EPS:
                    incumbent = candidate
                    improved_this_round = True
            if not improved_this_round:
                break

        compacted = incumbent.compacted()
        return compacted if compacted.cost() < schedule.cost() - _EPS else schedule
