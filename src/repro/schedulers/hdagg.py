"""HDagg wavefront-aggregation baseline (paper §4.1, Zarebavani et al. [46]).

HDagg sorts the nodes of the DAG into *wavefronts* (topological levels,
which map directly onto BSP supersteps), aggregates consecutive wavefronts
that do not expose enough parallelism, and then distributes the work of
every (aggregated) wavefront over the processors so that the load is
balanced and inter-processor communication between wavefronts is reduced.

This module is a Python re-implementation of that strategy (the original
C++ code targets SpTRSV kernels; the paper already uses it as a black-box
DAG scheduler, see the substitution note in DESIGN.md):

1. compute the topological level of every node;
2. greedily merge consecutive levels while the merged group contains fewer
   independent units (weakly connected components of the group's induced
   subgraph) than processors — thin wavefronts are the case HDagg's hybrid
   aggregation targets;
3. assign every unit of a group to one processor, processing units in
   decreasing order of work, preferring the processor that already owns the
   largest communication volume of the unit's direct predecessors, subject
   to a load-balance bound.

Because every intra-group dependency stays inside one unit (hence on one
processor) and group indices are monotone in topological level, the result
is always a valid BSP schedule.
"""

from __future__ import annotations

import numpy as np

from ..core.csr import gather_rows
from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["HDaggScheduler"]


class HDaggScheduler(Scheduler):
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
