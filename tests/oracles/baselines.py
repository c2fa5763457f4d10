"""Oracles of the Cilk and HDagg baselines: their first implementations.

``CilkReference`` runs a dispatch round over every idle processor until a
round hands out no task, so each processor with an empty stack scans all
stacks for a victim even when nothing is queued anywhere.
``HDaggReference`` recomputes every weakly connected component of the
growing group at each wavefront it adds, to end the group once it has as
many units as processors.  The program ends a dispatch round once no task
is queued, and counts no units, since with longest-path levels a group
never gains a unit after its first wavefront; both must give the same
schedules exactly.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core import BspMachine, BspSchedule, ComputationalDAG
from repro.core.classical import ClassicalSchedule, classical_to_bsp
from repro.core.csr import gather_rows
from repro.schedulers import Budget
from repro.schedulers.base import Scheduler

__all__ = ["CilkReference", "HDaggReference"]


class CilkReference(Scheduler):
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
        current_time = 0.0

        def try_dispatch() -> None:
            """Hand ready tasks to idle processors until no more moves exist."""
            nonlocal scheduled
            progress = True
            while progress and idle:
                progress = False
                for p in sorted(idle):
                    task = self._acquire_task(p, stacks, rng)
                    if task is None:
                        continue
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
            idle.add(proc)
            # Drain all events at the same timestamp before dispatching, so
            # ties are handled consistently.
            while events and events[0][0] == current_time:
                _, other_node, other_proc = heapq.heappop(events)
                for succ in dag.succ(other_node).tolist():
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0:
                        stacks[other_proc].append(succ)
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


class HDaggReference(Scheduler):
    """Wavefront aggregation + balanced, locality-aware unit assignment.

    Parameters
    ----------
    balance_factor:
        A unit may be placed on its preferred (locality-maximising)
        processor as long as that processor's load stays below
        ``balance_factor * (group work / P)``; otherwise the least-loaded
        processor is used.
    max_group_levels:
        Upper bound on how many consecutive wavefronts may be merged into
        one superstep.
    """

    name = "hdagg"

    def __init__(self, balance_factor: float = 1.2, max_group_levels: int = 16) -> None:
        self.balance_factor = balance_factor
        self.max_group_levels = max_group_levels

    # ------------------------------------------------------------------ #
    def _group_levels(
        self, dag: ComputationalDAG, num_procs: int, levels: np.ndarray
    ) -> list[list[int]]:
        """Merge consecutive levels into groups with enough independent units."""
        if dag.num_nodes == 0:
            return []
        num_levels = int(levels.max()) + 1
        # array-based wavefront construction: one stable argsort groups the
        # nodes by level with ascending index inside every level
        order = np.argsort(levels, kind="stable")
        boundaries = np.zeros(num_levels + 1, dtype=np.int64)
        np.cumsum(np.bincount(levels, minlength=num_levels), out=boundaries[1:])
        by_level: list[list[int]] = [
            order[boundaries[k] : boundaries[k + 1]].tolist()
            for k in range(num_levels)
        ]

        groups: list[list[int]] = []
        current: list[int] = []
        levels_in_group = 0
        for level_nodes in by_level:
            # A "fat" wavefront already exposes enough parallelism on its own;
            # merging it with pending thin wavefronts would only serialise it
            # (every unit of the merged group runs on a single processor), so
            # flush the pending group first.
            if len(level_nodes) >= num_procs and current:
                groups.append(current)
                current = []
                levels_in_group = 0
            current.extend(level_nodes)
            levels_in_group += 1
            units = self._units(dag, current)
            if (
                len(units) >= num_procs
                or len(level_nodes) >= num_procs
                or levels_in_group >= self.max_group_levels
            ):
                groups.append(current)
                current = []
                levels_in_group = 0
        if current:
            groups.append(current)
        return groups

    @staticmethod
    def _units(dag: ComputationalDAG, group: list[int]) -> list[list[int]]:
        """Weakly connected components of the subgraph induced by ``group``."""
        member = set(group)
        seen: set[int] = set()
        units: list[list[int]] = []
        for start in group:
            if start in seen:
                continue
            component = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                component.append(v)
                for w in dag.succ(v).tolist() + dag.pred(v).tolist():
                    if w in member and w not in seen:
                        seen.add(w)
                        stack.append(w)
            units.append(component)
        return units

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        n = dag.num_nodes
        procs = np.zeros(n, dtype=np.int64)
        supersteps = np.zeros(n, dtype=np.int64)
        if n == 0:
            return BspSchedule(dag, machine, procs, supersteps)

        levels = dag.levels()
        groups = self._group_levels(dag, machine.num_procs, levels)
        work_weights = dag.work_weights
        comm_weights = dag.comm_weights

        for superstep, group in enumerate(groups):
            units = self._units(dag, group)
            units.sort(key=lambda unit: (-float(work_weights[unit].sum()), unit[0]))
            group_work = float(work_weights[group].sum())
            load_bound = self.balance_factor * group_work / machine.num_procs
            loads = np.zeros(machine.num_procs, dtype=np.float64)
            for unit in units:
                unit_arr = np.asarray(unit, dtype=np.int64)
                unit_work = float(work_weights[unit_arr].sum())
                # predecessors already placed (earlier group) pull the unit
                # towards their processor; one ragged gather per unit
                preds, _ = gather_rows(dag.pred_indptr, dag.pred_indices, unit_arr)
                affinity = np.zeros(machine.num_procs, dtype=np.float64)
                if preds.size:
                    placed = preds[supersteps[preds] < superstep]
                    np.add.at(affinity, procs[placed], comm_weights[placed])
                preferred = max(
                    range(machine.num_procs),
                    key=lambda p: (affinity[p], -loads[p], -p),
                )
                if loads[preferred] + unit_work > load_bound and affinity[preferred] >= 0:
                    fallback = int(np.argmin(loads))
                    if loads[fallback] + unit_work <= load_bound or loads[fallback] < loads[preferred]:
                        preferred = fallback
                procs[unit_arr] = preferred
                supersteps[unit_arr] = superstep
                loads[preferred] += unit_work

        return BspSchedule(dag, machine, procs, supersteps)
