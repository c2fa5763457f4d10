"""HDagg wavefront-aggregation baseline (paper §4.1, Zarebavani et al. [46]).

HDagg sorts the nodes of the DAG into *wavefronts* (topological levels,
which map directly onto BSP supersteps), aggregates consecutive wavefronts
that do not expose enough parallelism, and then distributes the work of
every (aggregated) wavefront over the processors so that the load is
balanced and inter-processor communication between wavefronts is reduced.

This module re-implements that strategy in Python rather than binding the
original C++ code, which targets SpTRSV kernels; the paper, too, uses
HDagg as a black-box DAG scheduler:

1. compute the topological level of every node;
2. greedily merge consecutive levels while the merged group contains fewer
   independent units (weakly connected components of the group's induced
   subgraph) than processors — thin wavefronts are the case HDagg's hybrid
   aggregation targets.  With topological levels a group never gains a
   unit after its first wavefront, so this merges thin wavefronts up to a
   fat one or the level cap;
3. assign every unit of a group to one processor, processing units in
   decreasing order of work, preferring the processor that already owns the
   largest communication volume of the unit's direct predecessors, subject
   to a load-balance bound.

Because every intra-group dependency stays inside one unit (hence on one
processor) and group indices are monotone in topological level, the result
is always a valid BSP schedule.

Step 3 scores a whole group at once: one reduceat gives every unit's work
and one ``np.add.at`` scatters every unit's predecessor affinity into a
(units × P) block, before a plain loop places the units one by one.  This
is exact because a unit's predecessors lie in earlier groups, which are
placed already, or in the unit itself, which is not: placing one unit of
a group changes nothing another unit of the group reads.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..core.csr import gather_rows
from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["HDaggScheduler"]


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``values[starts[k] : starts[k + 1]].sum()`` for every ``k``, bit for bit.

    ``ndarray.sum`` adds a segment's elements to 0.0 in pairwise order;
    ``np.add.reduceat`` starts from the segment's first element instead.  A
    0.0 inserted before every segment makes the reduceat add the same
    floats in the same order.
    """
    heads = starts[:-1] + np.arange(starts.size - 1)
    padded = np.zeros(values.size + heads.size, dtype=np.float64)
    keep = np.ones(padded.size, dtype=bool)
    keep[heads] = False
    padded[keep] = values
    return np.add.reduceat(padded, heads)


def _search(adjacency: list[int], ptr: list[int]) -> tuple[list[int], list[bool]]:
    """Depth-first search for the units of one group.

    The group's nodes are positions ``0 .. len(ptr) - 2``, and position
    ``i``'s neighbours are ``adjacency[ptr[i] : ptr[i + 1]]``.  Returns the
    positions in visiting order and, for each, whether it starts a unit.
    """
    seen = bytearray(len(ptr) - 1)
    visit: list[int] = []
    starts: list[bool] = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        first = True
        while stack:
            i = stack.pop()
            visit.append(i)
            starts.append(first)
            first = False
            for j in adjacency[ptr[i] : ptr[i + 1]]:
                if not seen[j]:
                    seen[j] = 1
                    stack.append(j)
    return visit, starts


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

    Notes
    -----
    A unit's affinity counts the predecessors that HDagg's first
    implementation took as placed: those whose superstep is below the
    group's.  From the second group on, that also admits the unit's own
    predecessors inside the group: they are not placed yet and still hold
    superstep 0 and processor 0, so their communication weight adds to
    processor 0's affinity.  So in the first group no predecessor counts,
    and from the second group on every one does.  Counting only predecessors
    in earlier groups changes 3 of the 73 distinct (DAG, machine) pairs of the
    end-to-end benchmark's ``heur_mid``, ``ml_numa`` and ``batch_tiny``
    workloads at seed 1, all on seeded DAGs, and makes each cheaper:
    ``heur_mid``'s ``cg`` (452 → 446) and ``batch_tiny``'s ``tiny_spmv_lo``
    at P=16, g=5 (47 → 42) and at P=16, NUMA Δ=4 (281 → 274).  The rule is
    kept as it is, because changing it changes pinned costs.
    """

    name = "hdagg"

    def __init__(self, balance_factor: float = 1.2, max_group_levels: int = 16) -> None:
        self.balance_factor = balance_factor
        self.max_group_levels = max_group_levels

    # ------------------------------------------------------------------ #
    def _group_levels(
        self, dag: ComputationalDAG, num_procs: int, levels: np.ndarray
    ) -> list[list[int]]:
        """Merge consecutive levels into groups with enough independent units.

        A fat wavefront (at least ``num_procs`` nodes) forms a group of its
        own, and a group of thin ones ends after ``max_group_levels``
        levels.  HDagg would also end a group once it holds ``num_procs``
        units, but with the longest-path ``levels`` a group never does:
        every node of a later wavefront of the group has a predecessor in
        the wavefront before it, so it joins a unit the group already has,
        and a group has no more units than its first, thin, wavefront.  So
        no unit is counted here.
        """
        if dag.num_nodes == 0:
            return []
        num_levels = int(levels.max()) + 1
        # array-based wavefront construction: one stable argsort groups the
        # nodes by level with ascending index inside every level
        order = np.argsort(levels, kind="stable")
        boundaries = np.zeros(num_levels + 1, dtype=np.int64)
        np.cumsum(np.bincount(levels, minlength=num_levels), out=boundaries[1:])
        order = order.tolist()
        boundaries = boundaries.tolist()
        by_level: list[list[int]] = [
            order[boundaries[k] : boundaries[k + 1]] for k in range(num_levels)
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
            if len(level_nodes) >= num_procs or levels_in_group >= self.max_group_levels:
                groups.append(current)
                current = []
                levels_in_group = 0
        if current:
            groups.append(current)
        return groups

    @staticmethod
    def _units(
        dag: ComputationalDAG, groups: list[list[int]], levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The units of every group: the weakly connected components it induces.

        Returns ``(order, unit_starts, group_units)``.  ``order`` holds the
        nodes group after group and unit after unit; unit ``k`` is
        ``order[unit_starts[k] : unit_starts[k + 1]]``, and group ``s`` has
        the units ``group_units[s]`` to ``group_units[s + 1] - 1``.

        A group of one level has no inner edge, so each of its nodes is a
        unit, in group order.  A group of several (thin) levels is searched
        depth-first: each unit starts at its first node in group order and
        visits a node's successors in the group, then its predecessors in
        the group, each in CSR order.  The order is part of the result, as
        a unit's work and affinity are summed in it.
        """
        n = dag.num_nodes
        order = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=n)
        sizes = [len(group) for group in groups]
        bounds = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        is_start = np.ones(n, dtype=bool)
        deep = [s for s, group in enumerate(groups) if levels[group[0]] != levels[group[-1]]]
        if deep:
            group_of = np.empty(n, dtype=np.int64)
            group_of[order] = np.repeat(np.arange(len(groups)), sizes)
            members = np.concatenate([order[bounds[s] : bounds[s + 1]] for s in deep])
            member_bounds = np.zeros(len(deep) + 1, dtype=np.int64)
            np.cumsum([sizes[s] for s in deep], out=member_bounds[1:])
            # a member's index in ``members`` and its position in its group
            index = np.empty(n, dtype=np.int64)
            index[members] = np.arange(members.size)
            position = np.empty(n, dtype=np.int64)
            position[members] = np.arange(members.size) - np.repeat(
                member_bounds[:-1], np.diff(member_bounds)
            )
            # the inner edges of the deep groups from both ends, as one CSR
            # over ``members``: a member's successors in its group, then its
            # predecessors in its group, each in CSR order
            ends, others = [], []
            for indptr, indices in (
                (dag.succ_indptr, dag.succ_indices),
                (dag.pred_indptr, dag.pred_indices),
            ):
                nbrs, offsets = gather_rows(indptr, indices, members)
                heads = np.repeat(members, np.diff(offsets))
                inner = group_of[nbrs] == group_of[heads]
                ends.append(index[heads[inner]])
                others.append(position[nbrs[inner]])
            ends = np.concatenate(ends)
            adjacency = np.concatenate(others)[np.argsort(ends, kind="stable")]
            ptr = np.zeros(members.size + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=members.size), out=ptr[1:])
            member_bounds = member_bounds.tolist()
            for k, s in enumerate(deep):
                lo, hi = member_bounds[k], member_bounds[k + 1]
                visit, starts = _search(
                    adjacency[ptr[lo] : ptr[hi]].tolist(),
                    (ptr[lo : hi + 1] - ptr[lo]).tolist(),
                )
                order[bounds[s] : bounds[s + 1]] = members[lo:hi][visit]
                is_start[bounds[s] : bounds[s + 1]] = starts
        unit_starts = np.append(np.flatnonzero(is_start), n)
        return order, unit_starts, np.searchsorted(unit_starts, bounds)

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        procs, supersteps = self._place(dag, machine.num_procs)
        return BspSchedule(dag, machine, procs, supersteps)

    def _place(self, dag: ComputationalDAG, num_procs: int) -> tuple[np.ndarray, np.ndarray]:
        """Every node's processor and superstep."""
        n = dag.num_nodes
        procs = np.zeros(n, dtype=np.int64)
        supersteps = np.zeros(n, dtype=np.int64)
        if n == 0:
            return procs, supersteps

        levels = dag.levels()
        work_weights = dag.work_weights
        comm_weights = dag.comm_weights
        groups = self._group_levels(dag, num_procs, levels)
        order, unit_starts, group_units = self._units(dag, groups, levels)
        unit_sizes = unit_starts[1:] - unit_starts[:-1]
        group_sizes = group_units[1:] - group_units[:-1]
        unit_work = _segment_sums(work_weights[order], unit_starts)
        # each unit's index in its group, every node's unit index, and each
        # group's units in placement order: decreasing work, then first node
        local = np.arange(unit_sizes.size) - np.repeat(group_units[:-1], group_sizes)
        rows = np.repeat(local, unit_sizes)
        unit_group = np.repeat(np.arange(len(groups)), group_sizes)
        placement = local[np.lexsort((order[unit_starts[:-1]], -unit_work, unit_group))]
        bounds = unit_starts[group_units].tolist()
        group_units = group_units.tolist()

        for superstep, group in enumerate(groups):
            first, end = group_units[superstep], group_units[superstep + 1]
            lo, hi = bounds[superstep], bounds[superstep + 1]
            nodes = order[lo:hi]
            cells = (end - first) * num_procs
            if superstep == 0:
                affinity = [0.0] * cells
            else:
                # every predecessor of a unit counts: those of earlier groups
                # on their processors, the unit's own on processor 0, where
                # they still are (see the class docstring)
                preds, offsets = gather_rows(dag.pred_indptr, dag.pred_indices, nodes)
                cell = np.repeat(rows[lo:hi], offsets[1:] - offsets[:-1]) * num_procs
                affinity = np.bincount(
                    cell + procs[preds], weights=comm_weights[preds], minlength=cells
                ).tolist()
            chosen = self._assign(
                placement[first:end].tolist(),
                unit_work[first:end].tolist(),
                affinity,
                num_procs,
                self.balance_factor * float(work_weights[group].sum()) / num_procs,
            )
            procs[nodes] = np.repeat(chosen, unit_sizes[first:end])
        supersteps[order] = np.repeat(np.arange(len(groups)), np.diff(bounds))
        return procs, supersteps

    @staticmethod
    def _assign(
        unit_order: list[int],
        unit_work: list[float],
        affinity: list[float],
        num_procs: int,
        load_bound: float,
    ) -> list[int]:
        """Each unit's processor, choosing for the units in ``unit_order``.

        Unit ``u``'s affinity to processor ``p`` is ``affinity[u * P + p]``.
        A unit prefers the processor of largest affinity, then smallest
        load, then smallest id.  If that would push the processor's load
        past ``load_bound``, the least loaded processor (smallest id on
        ties) takes the unit instead when it stays within the bound or is
        less loaded.
        """
        loads = [0.0] * num_procs
        chosen = [0] * len(unit_order)
        for unit in unit_order:
            scores = affinity[unit * num_procs : (unit + 1) * num_procs]
            work = unit_work[unit]
            top = max(scores)
            ties = scores.count(top)
            if ties == num_procs:
                # no affinity to tell the processors apart (the first group)
                best_load = min(loads)
                best = loads.index(best_load)
            else:
                best = scores.index(top)
                best_load = loads[best]
                if ties > 1:
                    for proc in range(best + 1, num_procs):
                        if scores[proc] == top and loads[proc] < best_load:
                            best = proc
                            best_load = loads[proc]
            if best_load + work > load_bound:
                least = min(loads)
                if least + work <= load_bound or least < best_load:
                    best = loads.index(least)
            chosen[unit] = best
            loads[best] += work
        return chosen
