"""``ILPcs``: ILP optimisation of the communication schedule (paper §4.4).

With the node assignment ``(π, τ)`` fixed, every required transfer of a
value ``v`` to a target processor has a feasible window of communication
phases (``[τ(v), first-need - 1]``).  ``ILPcs`` chooses one phase per
transfer so that the sum of per-superstep h-relation costs is minimised.
As in the paper (and in ``HCcs``), values are always sent directly from the
processor that computes them.

The model has one binary variable per (transfer, feasible phase) pair and a
continuous h-relation variable per superstep — small enough to be solved on
the entire DAG even when the assignment ILPs are not.
"""

from __future__ import annotations

import numpy as np

from ...core.comm import CommStep
from ...core.schedule import BspSchedule
from ..base import Budget, ScheduleImprover
from .backend import MilpProblem

__all__ = ["IlpCommScheduleImprover"]

_EPS = 1e-9


class IlpCommScheduleImprover(ScheduleImprover):
    """Exact (time-limited) optimisation of transfer-to-phase placement.

    Parameters
    ----------
    time_limit:
        Wall-clock limit for the MILP solver (seconds).
    max_transfers:
        Safety bound: instances with more required transfers than this are
        left to the hill-climbing variant (``HCcs``).
    node_limit:
        Deterministic branch-and-bound node cap; a
        :class:`~repro.schedulers.Budget` with ``ilp_node_limit`` overrides
        it per invocation.
    """

    name = "ilp_commsched"

    def __init__(
        self,
        time_limit: float | None = 30.0,
        max_transfers: int = 5000,
        node_limit: int | None = None,
    ) -> None:
        self.time_limit = time_limit
        self.max_transfers = max_transfers
        self.node_limit = node_limit

    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        windows = schedule.comm_windows()
        if not windows or len(windows) > self.max_transfers:
            return schedule
        budget = budget or Budget()
        time_limit, node_limit = budget.ilp_limits(self.time_limit, self.node_limit)

        machine = schedule.machine
        dag = schedule.dag
        num_supersteps = schedule.num_supersteps
        problem = MilpProblem(name="ilp_commsched")

        h_vars = [
            problem.add_continuous(0.0, np.inf, objective=1.0)
            for _ in range(num_supersteps)
        ]
        choice_vars: list[dict[int, int]] = []
        for window in windows:
            phases = {
                s: problem.add_binary() for s in range(window.earliest, window.latest + 1)
            }
            problem.add_eq({var: 1.0 for var in phases.values()}, 1.0)
            choice_vars.append(phases)

        # h-relation constraints: for every superstep and processor, the sent
        # and received volume must stay below H[s]
        send_terms: dict[tuple[int, int], dict[int, float]] = {}
        recv_terms: dict[tuple[int, int], dict[int, float]] = {}
        for window, phases in zip(windows, choice_vars):
            volume = dag.comm(window.node) * machine.numa[window.source, window.target]
            for s, var in phases.items():
                send_terms.setdefault((s, window.source), {})[var] = -volume
                recv_terms.setdefault((s, window.target), {})[var] = -volume
        for (s, _proc), coefficients in send_terms.items():
            problem.add_ge({h_vars[s]: 1.0, **coefficients}, 0.0)
        for (s, _proc), coefficients in recv_terms.items():
            problem.add_ge({h_vars[s]: 1.0, **coefficients}, 0.0)

        solution = problem.solve(time_limit=time_limit, node_limit=node_limit)
        if not solution.feasible:
            return schedule

        steps = []
        for window, phases in zip(windows, choice_vars):
            chosen = None
            for s, var in phases.items():
                if solution.is_one(var):
                    chosen = s
                    break
            if chosen is None:
                chosen = window.latest
            steps.append(CommStep(window.node, window.source, window.target, chosen))
        candidate = schedule.with_comm_schedule(frozenset(steps))
        return candidate if candidate.cost() < schedule.cost() - _EPS else schedule
