"""Hill climbing over the communication schedule (``HCcs``, paper §4.3, Appendix A.3).

With the node assignment ``(π, τ)`` fixed, every required transfer of a
value ``v`` to a processor ``q`` may be placed in any communication phase
between ``τ(v)`` and one phase before the value is first needed on ``q``.
``HCcs`` starts from the lazy placement (everything as late as possible) and
greedily moves single transfers to a different feasible phase whenever that
strictly decreases the h-relation cost.  Only communication costs change, so
the incremental evaluation is a constant number of row updates per candidate.

Like the paper's implementation, transfers are always sent directly from
``π(v)`` (no forwarding through third processors).

All feasible phases of a window are evaluated against the maintained row
maxima in one vectorized expression: adding a transfer to a phase can only
*raise* that row, so its new maximum is ``max(comm_max[t], send[t, p1] + x,
recv[t, p2] + x)`` — no row copies, no mutate-and-restore.  Only removing
the transfer from its current phase needs one ``O(P)`` row scan, and that
term is shared by every candidate of the window.  The columnar window state
(sources, targets, volumes, window bounds, current choices) is built once
and kept across passes.  The seed copy-mutate-restore walker is retained as
``CommScheduleHillClimbingReference`` in ``tests/oracles/refiners.py`` and
the vectorized path reproduces its accepted-move sequence exactly (the
per-candidate deltas are bit-identical, not merely equal within tolerance).

Uncapped runs additionally batch each pass into *fronts*
(:func:`repro.core.kernels.hccs_pass_fronts`): a vectorized conflict scan
extracts the maximal scan-order-greedy set of windows whose feasible phase
intervals are pairwise disjoint, the whole front is evaluated and applied
in one batched kernel call, and the conflicting windows are deferred to the
next front.  Disjoint rows mean every window still observes exactly the row
state of the serial walk, so the accepted moves are unchanged — the passes
just stop paying one Python-level iteration per window.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..core.comm import CommStep, lazy_transfers
from ..core.schedule import BspSchedule
from .base import Budget, ScheduleImprover

__all__ = ["CommScheduleHillClimbing"]

_EPS = 1e-9


class CommScheduleHillClimbing(ScheduleImprover):
    """Greedy first-improvement local search on the communication schedule.

    Parameters
    ----------
    max_passes:
        Upper bound on the number of passes over all movable windows.
    record_moves:
        When true, the accepted moves ``(window_index, new_phase)`` of the
        last run are kept in :attr:`last_moves` for the differential tests.
    """

    name = "comm_hill_climbing"

    def __init__(self, max_passes: int = 50, record_moves: bool = False) -> None:
        self.max_passes = max_passes
        self.record_moves = record_moves
        #: accepted moves ``(window_index, new_phase)`` of the last run
        self.last_moves: list[tuple[int, int]] | None = None

    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        budget = budget or Budget()
        machine = schedule.machine
        dag = schedule.dag
        moves: list[tuple[int, int]] = []
        self.last_moves = moves if self.record_moves else None
        # columnar view of the windows, built once and kept across passes:
        # the lazy transfers, each movable from τ(node) up to its lazy phase
        nodes, srcs, tgts, latest = lazy_transfers(
            dag, schedule.procs, schedule.supersteps
        )
        if not nodes.size:
            return schedule
        num_supersteps = schedule.num_supersteps
        earliest = schedule.supersteps[nodes]

        # start from the incumbent's own placement when it is explicit,
        # otherwise from the lazy placement (the window's latest phase)
        if schedule.uses_lazy_comm:
            choices = latest.copy()
        else:
            explicit = {
                (step.node, step.source, step.target): step.superstep
                for step in schedule.comm_schedule
            }
            keys = zip(nodes.tolist(), srcs.tolist(), tgts.tolist())
            choices = np.array(
                [explicit.get(key, late) for key, late in zip(keys, latest.tolist())],
                dtype=np.int64,
            )
            # clamp any out-of-window explicit choice back into the window
            np.clip(choices, earliest, latest, out=choices)

        send = np.zeros((num_supersteps, machine.num_procs), dtype=np.float64)
        recv = np.zeros((num_supersteps, machine.num_procs), dtype=np.float64)
        volumes = dag.comm_weights[nodes] * machine.numa[srcs, tgts]
        np.add.at(send, (choices, srcs), volumes)
        np.add.at(recv, (choices, tgts), volumes)
        comm_max = np.maximum(send, recv).max(axis=1)

        # only windows with at least two feasible phases can ever move
        movable = np.flatnonzero(latest > earliest)
        state = kernels.HccsState(
            send=send,
            recv=recv,
            comm_max=comm_max,
            choices=choices,
            movable=movable,
            srcs=srcs,
            tgts=tgts,
            earliest=earliest,
            latest=latest,
            volumes=volumes,
        )

        # the budget's step cap bounds the accepted phase moves of this
        # invocation (None = until convergence)
        max_steps = budget.max_steps
        accepted = 0

        improved_any = True
        passes = 0
        while improved_any and passes < self.max_passes and not budget.expired():
            improved_any = False
            passes += 1
            if max_steps is None:
                # batched pass fronts: row-disjoint windows evaluated in one
                # kernel call each round — same accepted moves as the serial
                # walk under the exact-arithmetic regime
                got, pass_moves = kernels.hccs_pass_fronts(
                    state, _EPS, budget=budget
                )
            else:
                # a mid-pass step cap can cut anywhere in the scan order,
                # which fronts cannot replicate: keep the serial walk
                cap = max_steps - accepted
                got, pass_moves = kernels.hccs_pass(
                    state, 0, movable.size, cap, _EPS, budget=budget
                )
            accepted += got
            if got:
                improved_any = True
                if self.record_moves:
                    moves.extend(pass_moves)
            if max_steps is not None and accepted >= max_steps:
                break

        comm_schedule = frozenset(
            map(CommStep, nodes.tolist(), srcs.tolist(), tgts.tolist(), choices.tolist())
        )
        candidate = schedule.with_comm_schedule(comm_schedule)
        return candidate if candidate.cost() < schedule.cost() - _EPS else schedule
