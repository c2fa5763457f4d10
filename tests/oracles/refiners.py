"""Retained reference implementations of the local-search refiners.

These are the pre-vectorization walkers of ``HC`` and ``HCcs``: the node-move
hill climbing probes every candidate move by *mutating* the incremental cost
tracker and rolling back rejected moves with the inverse move, and the
communication-schedule hill climbing evaluates every candidate phase of a
window by copy-mutate-restore on the send/receive rows.  Both are kept
verbatim (modulo the move log) as the ground truth the batched, read-only
evaluation paths in :mod:`repro.schedulers.hill_climbing` and
:mod:`repro.schedulers.comm_hill_climbing` are pinned against: the
differential tests assert *identical accepted-move sequences* and identical
final schedules, not merely equal costs.

Like :mod:`oracles.core`, this module is test surface, not part of the
production scheduling pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.core.comm import CommStep, CommWindow
from repro.core.schedule import BspSchedule
from repro.schedulers.base import Budget, ScheduleImprover
from repro.schedulers.hill_climbing import LazyCostTracker

__all__ = ["HillClimbingImproverReference", "CommScheduleHillClimbingReference"]

_EPS = 1e-9


class HillClimbingImproverReference(ScheduleImprover):
    """Seed ``HC``: probes each candidate with an apply + inverse-apply pair.

    The accepted-move sequence (greedy first improvement over the scan order
    ``supersteps (s-1, s, s+1) x processors 0..P-1``) is the contract the
    vectorized :class:`~repro.schedulers.hill_climbing.HillClimbingImprover`
    must reproduce move for move.
    """

    name = "hill_climbing_reference"

    def __init__(
        self,
        max_passes: int = 50,
        max_steps: int | None = None,
        record_moves: bool = False,
    ) -> None:
        self.max_passes = max_passes
        self.max_steps = max_steps
        self.record_moves = record_moves
        #: accepted moves ``(node, new_proc, new_step)`` of the last run
        self.last_moves: list[tuple[int, int, int]] | None = None

    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        budget = budget or Budget()
        dag = schedule.dag
        machine = schedule.machine
        moves: list[tuple[int, int, int]] = []
        self.last_moves = moves if self.record_moves else None
        if dag.num_nodes == 0 or schedule.num_supersteps == 0:
            return schedule

        tracker = LazyCostTracker(
            dag, machine, schedule.procs, schedule.supersteps, schedule.num_supersteps
        )
        accepted = 0
        improved_any = True
        passes = 0
        while improved_any and passes < self.max_passes and not budget.expired():
            improved_any = False
            passes += 1
            for v in dag.nodes():
                if budget.expired():
                    break
                if self.max_steps is not None and accepted >= self.max_steps:
                    break
                current_proc = int(tracker.procs[v])
                current_step = int(tracker.supersteps[v])
                moved = False
                for new_step in (current_step - 1, current_step, current_step + 1):
                    if moved:
                        break
                    for new_proc in range(machine.num_procs):
                        if (new_proc, new_step) == (current_proc, current_step):
                            continue
                        if not tracker.is_valid_move(v, new_proc, new_step):
                            continue
                        delta = tracker.apply_move(v, new_proc, new_step)
                        if delta < -_EPS:
                            accepted += 1
                            improved_any = True
                            moved = True
                            if self.record_moves:
                                moves.append((v, new_proc, new_step))
                            break
                        # roll back by applying the inverse move
                        tracker.apply_move(v, current_proc, current_step)
            if self.max_steps is not None and accepted >= self.max_steps:
                break

        procs, supersteps = tracker.assignment()
        candidate = BspSchedule(dag, machine, procs, supersteps).compacted()
        return candidate if candidate.cost() < schedule.cost() - _EPS else schedule


class CommScheduleHillClimbingReference(ScheduleImprover):
    """Seed ``HCcs``: copy-mutate-restore evaluation of every candidate phase."""

    name = "comm_hill_climbing_reference"

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
        windows = schedule.comm_windows()
        if not windows:
            return schedule
        num_supersteps = schedule.num_supersteps

        # columnar view of the windows: one array per field
        nodes = np.array([w.node for w in windows], dtype=np.int64)
        srcs = np.array([w.source for w in windows], dtype=np.int64)
        tgts = np.array([w.target for w in windows], dtype=np.int64)
        earliest = np.array([w.earliest for w in windows], dtype=np.int64)
        latest = np.array([w.latest for w in windows], dtype=np.int64)

        # start from the incumbent's own placement when it is explicit,
        # otherwise from the lazy placement (the window's latest phase)
        if schedule.uses_lazy_comm:
            choices = latest.copy()
        else:
            explicit = {
                (step.node, step.source, step.target): step.superstep
                for step in schedule.comm_schedule
            }
            choices = np.array(
                [
                    explicit.get((w.node, w.source, w.target), w.latest)
                    for w in windows
                ],
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

        improved_any = True
        passes = 0
        while improved_any and passes < self.max_passes and not budget.expired():
            improved_any = False
            passes += 1
            for index, window in enumerate(windows):
                if budget.expired():
                    break
                if window.earliest == window.latest:
                    continue
                current = int(choices[index])
                best_phase = current
                best_delta = 0.0
                for candidate in range(window.earliest, window.latest + 1):
                    if candidate == current:
                        continue
                    delta = self._move_delta(
                        send, recv, comm_max, volumes[index], window, current, candidate
                    )
                    if delta < best_delta - _EPS:
                        best_delta = delta
                        best_phase = candidate
                if best_phase != current:
                    self._apply_move(
                        send, recv, comm_max, volumes[index], window, current, best_phase
                    )
                    choices[index] = best_phase
                    improved_any = True
                    if self.record_moves:
                        moves.append((index, best_phase))

        comm_schedule = frozenset(
            CommStep(w.node, w.source, w.target, int(choices[i]))
            for i, w in enumerate(windows)
        )
        candidate = schedule.with_comm_schedule(comm_schedule)
        return candidate if candidate.cost() < schedule.cost() - _EPS else schedule

    @staticmethod
    def _move_delta(
        send: np.ndarray,
        recv: np.ndarray,
        comm_max: np.ndarray,
        volume: float,
        window: CommWindow,
        old_phase: int,
        new_phase: int,
    ) -> float:
        """Change in total h-relation cost if the transfer moves phases (no state change)."""
        old_rows = {}
        for s in (old_phase, new_phase):
            old_rows[s] = (send[s].copy(), recv[s].copy())
        send[old_phase, window.source] -= volume
        recv[old_phase, window.target] -= volume
        send[new_phase, window.source] += volume
        recv[new_phase, window.target] += volume
        delta = 0.0
        for s in (old_phase, new_phase):
            delta += float(np.maximum(send[s], recv[s]).max()) - comm_max[s]
        for s, (send_row, recv_row) in old_rows.items():
            send[s] = send_row
            recv[s] = recv_row
        return delta

    @staticmethod
    def _apply_move(
        send: np.ndarray,
        recv: np.ndarray,
        comm_max: np.ndarray,
        volume: float,
        window: CommWindow,
        old_phase: int,
        new_phase: int,
    ) -> None:
        send[old_phase, window.source] -= volume
        recv[old_phase, window.target] -= volume
        send[new_phase, window.source] += volume
        recv[new_phase, window.target] += volume
        for s in (old_phase, new_phase):
            comm_max[s] = float(np.maximum(send[s], recv[s]).max())
