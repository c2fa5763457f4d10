"""The Source initialisation heuristic (paper §4.2, Appendix A.2, Algorithm 2).

``Source`` peels the DAG layer by layer: every iteration takes the current
source nodes (all predecessors already assigned), forms a new superstep from
them, and assigns them to processors round-robin in decreasing order of work
weight (for load balance).  The very first superstep instead clusters the
original sources — sources sharing a direct successor are grouped together —
and distributes the clusters round-robin, so that the inputs of the same
operation start out on the same processor.  After each round-robin pass, any
direct successor whose predecessors all ended up on one processor is pulled
into the current superstep on that processor (this avoids opening new
supersteps unnecessarily).

The schedule uses the lazy communication schedule.
"""

from __future__ import annotations

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["SourceScheduler"]


class _UnionFind:
    """Minimal union-find used to cluster the initial source nodes."""

    def __init__(self, elements: list[int]) -> None:
        self.parent = {v: v for v in elements}

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class SourceScheduler(Scheduler):
    """Layer-by-layer round-robin heuristic (``Source``)."""

    name = "source"

    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        n = dag.num_nodes
        num_procs = machine.num_procs
        procs = np.zeros(n, dtype=np.int64)
        supersteps = np.zeros(n, dtype=np.int64)
        if n == 0:
            return BspSchedule(dag, machine, procs, supersteps)

        assigned = np.zeros(n, dtype=bool)
        remaining_preds = dag.in_degrees()
        frontier = sorted(dag.sources())
        superstep = 0

        def mark_assigned(node: int, proc: int) -> list[int]:
            """Assign ``node`` and return successors that just became sources."""
            procs[node] = proc
            supersteps[node] = superstep
            assigned[node] = True
            newly_ready = []
            for succ in dag.succ(node).tolist():
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    newly_ready.append(succ)
            return newly_ready

        while frontier:
            next_frontier: list[int] = []
            if superstep == 0:
                clusters = self._cluster_initial_sources(dag, frontier)
                proc = 0
                for cluster in clusters:
                    for node in cluster:
                        next_frontier.extend(mark_assigned(node, proc))
                    proc = (proc + 1) % num_procs
            else:
                proc = 0
                for node in sorted(frontier, key=lambda v: (-dag.work(v), v)):
                    next_frontier.extend(mark_assigned(node, proc))
                    proc = (proc + 1) % num_procs

            # Pull successors whose predecessors all sit on one processor into
            # the current superstep (no communication needed for them).  As in
            # the paper's Algorithm 2 this is a single pass over the direct
            # successors of the layer just assigned, not a fixpoint iteration.
            for node in list(next_frontier):
                preds = dag.pred(node)
                if preds.size and assigned[preds].all():
                    owner_procs = np.unique(procs[preds])
                    if owner_procs.size == 1:
                        next_frontier.remove(node)
                        next_frontier.extend(mark_assigned(node, int(owner_procs[0])))

            frontier = sorted(set(next_frontier))
            superstep += 1

        return BspSchedule(dag, machine, procs, supersteps)

    @staticmethod
    def _cluster_initial_sources(
        dag: ComputationalDAG, sources: list[int]
    ) -> list[list[int]]:
        """Group the initial sources: sources sharing a direct successor are merged."""
        union_find = _UnionFind(list(sources))
        source_set = set(sources)
        seen_parent_of: dict[int, int] = {}
        for source in sources:
            for succ in dag.succ(source).tolist():
                if succ in seen_parent_of:
                    other = seen_parent_of[succ]
                    if other in source_set:
                        union_find.union(source, other)
                else:
                    seen_parent_of[succ] = source
        clusters: dict[int, list[int]] = {}
        for source in sources:
            clusters.setdefault(union_find.find(source), []).append(source)
        return [sorted(cluster) for _, cluster in sorted(clusters.items())]
