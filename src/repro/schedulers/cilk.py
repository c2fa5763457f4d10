"""The Cilk work-stealing baseline (paper §4.1 and Appendix A.1).

Cilk maintains one stack of ready tasks per processor.  When the last direct
predecessor of a node finishes on processor ``p``, the node is pushed onto
the *top* of ``p``'s stack.  An idle processor pops from the top of its own
stack; if its stack is empty it picks another processor with a non-empty
stack uniformly at random and *steals* the task at the *bottom* of that
stack.  Communication costs are ignored while building the schedule (Cilk is
oblivious to them); the resulting classical (time-indexed) schedule is then
converted into a BSP schedule with
:func:`repro.core.classical.classical_to_bsp` and evaluated under the full
BSP(+NUMA) cost model.

Source nodes (which have no "last finishing predecessor") are seeded onto
processor 0's stack, matching the original Cilk setting of a single initial
task whose children are then distributed by stealing.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.classical import ClassicalSchedule, classical_to_bsp
from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["CilkScheduler"]


class CilkScheduler(Scheduler):
    """Work-stealing list scheduler with seeded (reproducible) victim selection."""

    name = "cilk"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------ #
    def classical_schedule(
        self, dag: ComputationalDAG, num_procs: int
    ) -> ClassicalSchedule:
        """Run the work-stealing simulation and return the classical schedule."""
        rng = np.random.default_rng(self.seed)
        n = dag.num_nodes
        procs = np.zeros(n, dtype=np.int64)
        start_times = np.zeros(n, dtype=np.float64)
        finish_times = np.zeros(n, dtype=np.float64)

        remaining_preds = dag.in_degrees().tolist()
        stacks: list[list[int]] = [[] for _ in range(num_procs)]
        # Seed all sources on processor 0 (reverse order so that the
        # lowest-index source ends up on top of the stack).
        for v in reversed(dag.sources()):
            stacks[0].append(v)

        idle = set(range(num_procs))
        events: list[tuple[float, int, int]] = []  # (finish_time, node, proc)
        scheduled = 0
        queued = len(stacks[0])  # tasks on all stacks
        current_time = 0.0

        def try_dispatch() -> None:
            """Hand ready tasks to idle processors until no more moves exist.

            With no task queued, every idle processor would find its own
            stack and every victim's empty and take nothing, without an rng
            draw, so the round ends there instead.
            """
            nonlocal scheduled, queued
            progress = True
            while progress and idle and queued:
                progress = False
                for p in sorted(idle):
                    if not queued:
                        break
                    task = self._acquire_task(p, stacks, rng)
                    if task is None:
                        continue
                    queued -= 1
                    idle.discard(p)
                    procs[task] = p
                    start_times[task] = current_time
                    finish_times[task] = current_time + dag.work(task)
                    heapq.heappush(events, (finish_times[task], task, p))
                    scheduled += 1
                    progress = True

        try_dispatch()
        while scheduled < n or events:
            if not events:
                # No running task and nothing dispatchable: every remaining
                # node still waits on a predecessor, which is impossible in a
                # DAG simulation -- guard against silent infinite loops.
                raise RuntimeError("work-stealing simulation stalled")
            current_time, node, proc = heapq.heappop(events)
            # Release successors whose last predecessor just finished; they
            # are pushed on top of the finishing processor's stack.
            for succ in dag.succ(node).tolist():
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    stacks[proc].append(succ)
                    queued += 1
            idle.add(proc)
            # Drain all events at the same timestamp before dispatching, so
            # ties are handled consistently.
            while events and events[0][0] == current_time:
                _, other_node, other_proc = heapq.heappop(events)
                for succ in dag.succ(other_node).tolist():
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0:
                        stacks[other_proc].append(succ)
                        queued += 1
                idle.add(other_proc)
            try_dispatch()

        return ClassicalSchedule(
            dag=dag,
            num_procs=num_procs,
            procs=procs,
            start_times=start_times,
            finish_times=finish_times,
        )

    @staticmethod
    def _acquire_task(
        proc: int, stacks: list[list[int]], rng: np.random.Generator
    ) -> int | None:
        """Pop from the own stack top, or steal from the bottom of a random victim."""
        if stacks[proc]:
            return stacks[proc].pop()
        victims = [p for p, stack in enumerate(stacks) if p != proc and stack]
        if not victims:
            return None
        victim = victims[int(rng.integers(len(victims)))]
        return stacks[victim].pop(0)

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        classical = self.classical_schedule(dag, machine.num_procs)
        return classical_to_bsp(classical, machine)
