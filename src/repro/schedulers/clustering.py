"""A cluster-based baseline scheduler (DSC-style linear clustering + merging).

The paper's related-work section (§2, §4.1) discusses cluster-based
heuristics (e.g. DSC [42]) as the second large family of classical
scheduling algorithms besides list schedulers, noting that previous studies
found them consistently outperformed by BL-EST/ETF once communication
volume matters.  This module provides such a baseline so that the claim can
be checked inside this framework as well:

1. **Linear clustering**: walk the DAG along critical paths (largest
   bottom level first) and grow zero-communication chains — every node is
   merged into the cluster of the predecessor that would otherwise cause the
   most expensive transfer, provided that predecessor's cluster has not been
   extended in this superstep by another node.
2. **Cluster merging**: while there are more clusters than processors,
   merge the two smallest clusters (by total work).
3. **Mapping**: clusters are assigned to processors round-robin by
   decreasing work; supersteps are the topological levels of the original
   DAG (wavefronts), which keeps the schedule valid for any clustering.
"""

from __future__ import annotations

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["LinearClusteringScheduler"]


class LinearClusteringScheduler(Scheduler):
    """DSC-flavoured linear clustering followed by load-balanced mapping."""

    name = "clustering"

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

        cluster_of = self._linear_clusters(dag)
        cluster_of = self._merge_small_clusters(dag, cluster_of, machine.num_procs)

        # map clusters to processors: decreasing total work, round-robin.
        # per-cluster work is one weighted bincount over the CSR weight vector
        cluster_arr = np.asarray(cluster_of, dtype=np.int64)
        counts = np.bincount(cluster_arr)
        totals = np.bincount(cluster_arr, weights=dag.work_weights)
        cluster_ids = np.flatnonzero(counts).tolist()
        proc_of_cluster: dict[int, int] = {}
        for index, cluster in enumerate(
            sorted(cluster_ids, key=lambda c: (-totals[c], c))
        ):
            proc_of_cluster[cluster] = index % machine.num_procs

        # supersteps: wavefronts of the original DAG -- every edge crosses to a
        # strictly later superstep, so the schedule is valid for any clustering
        proc_map = np.zeros(int(cluster_arr.max()) + 1, dtype=np.int64)
        for cluster, proc in proc_of_cluster.items():
            proc_map[cluster] = proc
        procs = proc_map[cluster_arr]
        supersteps = dag.levels().astype(np.int64)
        return BspSchedule(dag, machine, procs, supersteps)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _linear_clusters(dag: ComputationalDAG) -> list[int]:
        """Grow zero-communication chains along heavy edges (linear clustering)."""
        cluster_of = [-1] * dag.num_nodes
        # a linear cluster may contain at most one node per topological level,
        # so remember the deepest level already used by each cluster
        deepest_level: dict[int, int] = {}
        levels = dag.levels()
        bottom = dag.bottom_levels()
        order = sorted(dag.nodes(), key=lambda v: (levels[v], -bottom[v], v))
        next_cluster = 0
        for v in order:
            candidates = []
            for u in dag.pred(v).tolist():
                cluster = cluster_of[u]
                if deepest_level.get(cluster, -1) < levels[v]:
                    candidates.append((dag.comm(u), u, cluster))
            if candidates:
                _, _, chosen = max(candidates, key=lambda item: (item[0], -item[1]))
                cluster_of[v] = chosen
            else:
                cluster_of[v] = next_cluster
                next_cluster += 1
            deepest_level[cluster_of[v]] = int(levels[v])
        return cluster_of

    @staticmethod
    def _merge_small_clusters(
        dag: ComputationalDAG, cluster_of: list[int], num_procs: int
    ) -> list[int]:
        """Merge the smallest clusters until at most ``4 * num_procs`` remain.

        Cluster totals are maintained incrementally, so each merge is O(n)
        for the relabel plus O(k log k) for the smallest-pair selection
        instead of a full recount per round.
        """
        target = max(num_procs * 4, 1)
        cluster_arr = np.asarray(cluster_of, dtype=np.int64)
        counts = np.bincount(cluster_arr)
        totals = np.bincount(cluster_arr, weights=dag.work_weights)
        work = {int(c): float(totals[c]) for c in np.flatnonzero(counts)}
        while len(work) > target:
            smallest = sorted(work, key=lambda c: (work[c], c))[:2]
            keep, drop = smallest[0], smallest[1]
            cluster_arr[cluster_arr == drop] = keep
            work[keep] += work.pop(drop)
        return cluster_arr.tolist()
