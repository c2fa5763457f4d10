"""Acyclicity-preserving DAG coarsening (paper §4.5, Appendix A.5).

The multilevel scheduler repeatedly contracts single edges of the DAG.  An
edge ``(u, v)`` may be contracted only when there is no *other* directed
path from ``u`` to ``v`` (otherwise the contraction would create a cycle).
Among the contractable candidates the selection rule of the paper is used:
restrict to the lightest third of the edges by combined work weight
``w(u) + w(v)``, and among those pick the edge whose source has the largest
communication weight ``c(u)`` (a heavy output that we would like to keep on
one processor).  The contracted node accumulates both the work and the
communication weights of its two endpoints.

The full contraction history is recorded in a :class:`CoarseningSequence`
so the uncoarsening phase can rebuild the DAG at any intermediate level (a
*quotient* DAG over the current clusters) and project schedules between
levels.

Implementation notes
--------------------
The seed implementation re-listed and re-sorted the full edge set on every
contraction (O(m log m) per step).  :func:`coarsen_dag` instead keeps the
candidate edges in a :class:`_BucketQueue` — buckets keyed by the merged
work weight, each bucket a lazy max-heap over the source communication
weight — so one contraction only re-keys the edges incident to the merged
endpoints and a selection touches the few lightest buckets, which makes
coarsening near-linear on bounded-degree DAGs.  Two deliberate rule
refinements over the seed (both covered by tests):

* ties at the lightest-third boundary are resolved by including the whole
  boundary bucket (the seed cut tie groups apart at an arbitrary edge id);
* when no edge of the light set is contractable, the heavier remainder is
  scanned in the same largest-``c(u)`` order as the light set — the paper's
  selection rule — instead of the seed's ascending-work order.

The seed path is retained verbatim in ``tests/oracles/coarsen.py`` for
differential tests.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from ...core import kernels
from ...core.csr import dedupe_edges
from ...core.dag import ComputationalDAG
from ...core.exceptions import DagError

__all__ = [
    "ContractionRecord",
    "QuotientDag",
    "CoarseningSequence",
    "coarsen_dag",
]


@dataclass(frozen=True)
class ContractionRecord:
    """One edge contraction: node ``removed`` was merged into node ``kept``."""

    kept: int
    removed: int


@dataclass
class QuotientDag:
    """The DAG obtained by merging every cluster of original nodes into one node."""

    dag: ComputationalDAG
    #: original node index -> coarse node index
    orig_to_coarse: np.ndarray
    #: coarse node index -> representative original node index
    coarse_to_rep: list[int]


@dataclass
class CoarseningSequence:
    """The original DAG plus the ordered list of contractions applied to it."""

    original: ComputationalDAG
    records: list[ContractionRecord] = field(default_factory=list)

    @property
    def num_contractions(self) -> int:
        """Total number of contraction steps recorded."""
        return len(self.records)

    def representative_map(self, num_contractions: int | None = None) -> np.ndarray:
        """Map every original node to its cluster representative.

        Only the first ``num_contractions`` records are applied (all of them
        by default), which is how the uncoarsening phase walks back towards
        the original DAG.
        """
        if num_contractions is None:
            num_contractions = self.num_contractions
        if not 0 <= num_contractions <= self.num_contractions:
            raise DagError(
                f"num_contractions must be in [0, {self.num_contractions}]"
            )
        parent = np.arange(self.original.num_nodes, dtype=np.int64)
        for record in self.records[:num_contractions]:
            parent[record.removed] = record.kept
        # path compression: resolve chains (removed nodes may point at nodes
        # that were themselves removed later)
        for v in range(len(parent)):
            root = v
            while parent[root] != root:
                root = parent[root]
            while parent[v] != root:
                parent[v], v = root, int(parent[v])
        return parent

    def quotient(self, num_contractions: int | None = None) -> QuotientDag:
        """Build the quotient DAG after the first ``num_contractions`` contractions.

        Fully vectorized: the original edge arrays are mapped through the
        cluster relabelling, intra-cluster edges are masked out, and the
        remaining multi-edges are deduplicated keeping the first occurrence
        (the historical edge order), then handed to the CSR container in
        one shot.
        """
        rep = self.representative_map(num_contractions)
        reps = np.unique(rep)
        num_coarse = int(reps.size)
        coarse_index = np.full(self.original.num_nodes, -1, dtype=np.int64)
        coarse_index[reps] = np.arange(num_coarse, dtype=np.int64)
        orig_to_coarse = coarse_index[rep]

        work = np.zeros(num_coarse, dtype=np.float64)
        comm = np.zeros(num_coarse, dtype=np.float64)
        np.add.at(work, orig_to_coarse, self.original.work_weights)
        np.add.at(comm, orig_to_coarse, self.original.comm_weights)

        src, dst = self.original.edge_arrays()
        cu = orig_to_coarse[src]
        cv = orig_to_coarse[dst]
        cross = cu != cv
        cu, cv = dedupe_edges(num_coarse, cu[cross], cv[cross])
        quotient = ComputationalDAG.from_edge_arrays(
            num_coarse,
            cu,
            cv,
            work,
            comm,
            name=f"{self.original.name}_coarse{num_coarse}",
            validate=False,
        )
        return QuotientDag(
            dag=quotient,
            orig_to_coarse=orig_to_coarse,
            coarse_to_rep=reps.tolist(),
        )


class _FlatGraph:
    """Flat-array working graph for the contraction loop.

    The adjacency is kept as *pooled sorted rows* (``succ_pool``/
    ``succ_start``/``succ_len`` and the predecessor mirror) instead of the
    seed's dict-of-sets.  The flat successor arrays are exactly what the
    acyclicity probes (:func:`repro.core.kernels.coarsen_reach` and
    :func:`repro.core.kernels.pk_order`) walk.  A contraction merges rows
    as sorted duplicate-free sets (plain Python set-union — far cheaper
    than a numpy set op on the short rows of bounded-degree DAGs); a
    merged row that outgrows its slot is
    re-appended at the pool tail (per-row capacities, doubling pools), and
    neighbour rows only ever *replace* the removed endpoint by the kept one,
    which can never grow them.
    """

    def __init__(self, dag: ComputationalDAG, use_order: bool = False) -> None:
        n = dag.num_nodes
        self.succ_pool, self.succ_start, self.succ_len = self._sorted_rows(
            dag.succ_indptr, dag.succ_indices, n
        )
        self.pred_pool, self.pred_start, self.pred_len = self._sorted_rows(
            dag.pred_indptr, dag.pred_indices, n
        )
        self.succ_cap = self.succ_len.copy()
        self.pred_cap = self.pred_len.copy()
        self._succ_used = int(self.succ_pool.size)
        self._pred_used = int(self.pred_pool.size)
        self.work = dag.work_weights.astype(np.float64, copy=True)
        self.comm = dag.comm_weights.astype(np.float64, copy=True)
        self.alive = np.ones(n, dtype=bool)
        self._live = n
        # Pearce–Kelly dynamic topological order (node -> position; dead
        # nodes leave permanent holes — only relative order matters)
        self.order = None
        if use_order:
            topo = np.asarray(dag.topological_order(), dtype=np.int64)
            self.order = np.empty(max(n, 1), dtype=np.int64)
            self.order[topo] = np.arange(n, dtype=np.int64)

    @staticmethod
    def _sorted_rows(indptr, indices, n):
        row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        order = np.lexsort((indices, row_ids))
        pool = np.ascontiguousarray(indices[order], dtype=np.int64)
        return pool, indptr[:-1].astype(np.int64), np.diff(indptr).astype(np.int64)

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self._live

    def node_ids(self) -> list[int]:
        return np.flatnonzero(self.alive).tolist()

    def succ_row(self, u: int) -> np.ndarray:
        b = self.succ_start[u]
        return self.succ_pool[b : b + self.succ_len[u]]

    def pred_row(self, v: int) -> np.ndarray:
        b = self.pred_start[v]
        return self.pred_pool[b : b + self.pred_len[v]]

    def edge_iter(self):
        for u in self.node_ids():
            for w in self.succ_row(u).tolist():
                yield u, w

    def incident_edges(self, v: int) -> set[tuple[int, int]]:
        """All current edges with ``v`` as an endpoint."""
        out = {(v, w) for w in self.succ_row(v).tolist()}
        out |= {(w, v) for w in self.pred_row(v).tolist()}
        return out

    # ------------------------------------------------------------------ #
    def is_contractable(self, u: int, v: int, budget: int | None = None) -> bool:
        """True when the only ``u -> v`` path is the direct edge.

        Two exact fast paths cover the common cases in O(1): when ``v`` is
        the only successor of ``u`` every alternative path would have to
        leave ``u`` through ``v``, and when ``u`` is the only predecessor of
        ``v`` every alternative path would have to enter ``v`` through
        ``u``.  Otherwise a reachability probe looks for another route to
        ``v``; a probe stopped by the ``budget`` conservatively reports
        *not* contractable (never unsafe — a skipped edge can only delay
        coarsening, a false positive could create a cycle).  With a
        maintained dynamic order (``use_order=True``) and no budget, the
        probe is the Pearce–Kelly kernel pruned to the position strip
        ``order < order[v]`` — exact, and on dense DAGs a small fraction
        of the descendant set the plain DFS walks.
        """
        if self.succ_len[u] == 1:
            return True
        if self.pred_len[v] == 1:
            return True
        if self.order is not None and budget is None:
            return kernels.pk_order(self, 0, u, v) == 0
        return kernels.coarsen_reach(self, u, v, budget) == 0

    def contract(self, u: int, v: int) -> None:
        """Merge ``v`` into ``u`` (the edge ``(u, v)`` must exist and be contractable)."""
        su = self.succ_row(u).tolist()
        sv = self.succ_row(v).tolist()
        pu = self.pred_row(u).tolist()
        pv = self.pred_row(v).tolist()
        new_succ = sorted({w for w in su if w != v} | {w for w in sv if w != u})
        new_pred = sorted({w for w in pu if w != v} | {w for w in pv if w != u})
        for w in sv:
            if w != u:
                self._replace(self.pred_pool, self.pred_start, self.pred_len, w, v, u)
        for w in pv:
            if w != u:
                self._replace(self.succ_pool, self.succ_start, self.succ_len, w, v, u)
        self._write_row("succ", u, new_succ)
        self._write_row("pred", u, new_pred)
        self.succ_len[v] = 0
        self.pred_len[v] = 0
        self.work[u] += self.work[v]
        self.comm[u] += self.comm[v]
        self.alive[v] = False
        self._live -= 1
        if self.order is not None:
            # Restore order validity.  The merge can only violate in-edges
            # of u: v's successors sit above order[v] > order[u], and every
            # other row kept its endpoints.  Each violated edge is repaired
            # by one Pearce–Kelly insertion; insertions never invalidate a
            # currently-valid edge (the F/B regions are DFS closures), so
            # repairing them in sequence — re-reading order[u], since one
            # repair may fix later violations — restores a fully valid
            # order.  The cycle branch cannot trigger: the adjacency is
            # already merged and acyclic (the contraction was checked).
            order = self.order
            for x in new_pred:
                if order[x] > order[u]:
                    kernels.pk_order(self, 1, x, u)

    @staticmethod
    def _replace(pool, start, length, w, old, new) -> None:
        """In row ``w``: drop ``old``, add ``new``, keep sorted-unique.

        Removal always applies (``old`` is in the row by construction), so
        the merged row never exceeds the old length — in-place rewrite.
        """
        b = start[w]
        row = pool[b : b + length[w]].tolist()
        merged = sorted({x for x in row if x != old} | {new})
        pool[b : b + len(merged)] = merged
        length[w] = len(merged)

    def _write_row(self, side: str, u: int, row: list[int]) -> None:
        pool = self.succ_pool if side == "succ" else self.pred_pool
        start = self.succ_start if side == "succ" else self.pred_start
        length = self.succ_len if side == "succ" else self.pred_len
        cap = self.succ_cap if side == "succ" else self.pred_cap
        m = len(row)
        if m <= cap[u]:
            b = start[u]
            pool[b : b + m] = row
            length[u] = m
            return
        used = self._succ_used if side == "succ" else self._pred_used
        if used + m > pool.size:
            grown = np.empty(max(pool.size * 2, used + m), dtype=np.int64)
            grown[:used] = pool[:used]
            pool = grown
            if side == "succ":
                self.succ_pool = grown
            else:
                self.pred_pool = grown
        pool[used : used + m] = row
        start[u] = used
        cap[u] = m
        length[u] = m
        if side == "succ":
            self._succ_used = used + m
        else:
            self._pred_used = used + m


class _BucketQueue:
    """Bucketed lazy priority structure over the merged work weight.

    Every candidate edge ``(u, v)`` lives in the bucket of its merged work
    weight ``w(u) + w(v)``; each bucket is a max-heap over the selection
    tiebreak ``(-c(u), (u, v))``.  Entries are invalidated *lazily* through
    per-node version counters: a contraction bumps the versions of the two
    merged endpoints, which strands every entry mentioning them (their key
    or comm column changed, or the edge disappeared — all three can only
    happen through a contraction touching an endpoint), and re-inserts the
    merged node's incident edges under their new keys.  Stale entries are
    skipped (and dropped) whenever they surface at the top of a bucket, and
    per-bucket live counts keep the lightest-third cutoff exact, so one
    contraction costs O((deg(u) + deg(v)) · log) bookkeeping instead of the
    seed's full O(m log m) rescan-and-sort.

    With ``final_rejections`` (an exact acyclicity check), an entry the
    check rejects leaves its heap for good but stays counted in ``live``:
    a second ``u -> v`` path survives every contraction that merges
    neither ``u`` nor ``v`` (its inner nodes may merge, but never into
    ``u`` or ``v``), and one that merges ``u`` or ``v`` strands the entry
    anyway.  So the edge is never probed again at the same endpoint
    versions, and the cutoff still counts it, as the seed's full edge
    list does.  A budgeted check's "no" may be a budget stop, so without
    the flag a rejected entry goes back into its bucket.
    """

    def __init__(
        self, graph: _FlatGraph, final_rejections: bool = False
    ) -> None:
        self.graph = graph
        self.final_rejections = final_rejections
        self.version: dict[int, int] = dict.fromkeys(graph.node_ids(), 0)
        self.buckets: dict[float, list[tuple]] = {}
        self.live: dict[float, int] = {}
        self.keys: list[float] = []  # ascending; may contain emptied keys
        self.total = 0
        for u, v in graph.edge_iter():
            self.insert(u, v)

    # ------------------------------------------------------------------ #
    def insert(self, u: int, v: int) -> None:
        """Account the edge under its current merged work weight."""
        graph = self.graph
        key = graph.work[u] + graph.work[v]
        if key not in self.live:
            self.live[key] = 0
            self.buckets[key] = []
            insort(self.keys, key)
        heapq.heappush(
            self.buckets[key],
            (-graph.comm[u], (u, v), self.version[u], self.version[v]),
        )
        self.live[key] += 1
        self.total += 1

    def discard(self, u: int, v: int) -> None:
        """Unaccount the edge at its *current* key; its heap entry goes stale.

        Must run before the endpoint weights change.
        """
        key = self.graph.work[u] + self.graph.work[v]
        self.live[key] -= 1
        self.total -= 1

    def contract(self, u: int, v: int) -> None:
        """Contract ``(u, v)`` in the graph and re-key the affected entries."""
        graph = self.graph
        affected = graph.incident_edges(u) | graph.incident_edges(v)
        for a, b in affected:
            self.discard(a, b)
        self.version[u] += 1
        del self.version[v]
        graph.contract(u, v)
        for a, b in graph.incident_edges(u):
            self.insert(a, b)

    # ------------------------------------------------------------------ #
    def _is_live(self, entry: tuple) -> bool:
        _, (u, v), version_u, version_v = entry
        return (
            self.version.get(u) == version_u and self.version.get(v) == version_v
        )

    def _live_top(self, key: float) -> tuple | None:
        bucket = self.buckets[key]
        while bucket and not self._is_live(bucket[0]):
            heapq.heappop(bucket)
        return bucket[0] if bucket else None

    def _first_contractable(self, keys: list[float], is_contractable) -> tuple | None:
        """First contractable edge over ``keys`` in ``(-c(u), (u, v))`` order."""
        merge = []
        for key in keys:
            top = self._live_top(key)
            if top is not None:
                merge.append((top, key))
        heapq.heapify(merge)
        popped: list[tuple] = []  # rejected entries to restore on exit
        chosen: tuple | None = None
        while merge:
            entry, key = heapq.heappop(merge)
            heapq.heappop(self.buckets[key])  # `entry` is still this bucket's top
            u, v = entry[1]
            if is_contractable(u, v):
                chosen = (u, v)  # consumed by the upcoming contraction
                break
            if not self.final_rejections:
                popped.append((entry, key))
            refill = self._live_top(key)
            if refill is not None:
                heapq.heappush(merge, (refill, key))
        for entry, key in popped:
            heapq.heappush(self.buckets[key], entry)
        return chosen

    def select(self, light_fraction: float, is_contractable) -> tuple | None:
        """The paper's selection rule over the current candidate set.

        Walks the buckets in ascending key order until the lightest
        ``light_fraction`` of the live edges is covered (whole boundary
        bucket included), picks the max-``c(u)`` contractable edge among
        them, and falls back to the heavier remainder in the same comm-major
        order when the light set has no contractable edge.
        """
        if self.total == 0:
            return None
        cutoff = max(1, math.ceil(self.total * light_fraction))
        light_keys: list[float] = []
        covered = 0
        dead = 0
        boundary = len(self.keys)
        for index, key in enumerate(self.keys):
            count = self.live.get(key, 0)
            if count == 0:
                dead += 1
                continue
            light_keys.append(key)
            covered += count
            if covered >= cutoff:
                boundary = index + 1
                break
        chosen = self._first_contractable(light_keys, is_contractable)
        if chosen is None:
            rest = [k for k in self.keys[boundary:] if self.live.get(k, 0) > 0]
            chosen = self._first_contractable(rest, is_contractable)
        if dead > len(self.keys) // 2:
            self._compact()
        return chosen

    def _compact(self) -> None:
        """Drop emptied buckets so the ascending key walk stays short."""
        for key in list(self.live):
            if self.live[key] == 0:
                del self.live[key]
                del self.buckets[key]
        self.keys = sorted(self.live)


def coarsen_dag(
    dag: ComputationalDAG,
    target_nodes: int,
    light_fraction: float = 1.0 / 3.0,
    search_budget: int | None = None,
    method: str = "auto",
) -> CoarseningSequence:
    """Contract edges until at most ``target_nodes`` nodes remain.

    The paper's selection rule is applied at every step (lightest third by
    merged work weight, then largest source communication weight; the same
    comm-major order decides the fallback over the heavier edges when the
    light set has no contractable candidate).  The procedure stops early
    when no contractable edge exists (e.g. the graph has become edgeless).

    ``method`` selects the acyclicity machinery.  ``"pk"`` maintains a
    Pearce–Kelly dynamic topological order: every probe is pruned to the
    position strip between the endpoints and every contraction repairs the
    order incrementally — exact, with the same contract/skip decisions as
    the DFS, but near-linear growth on dense DAGs where the plain DFS
    re-walks large descendant sets.  ``"dfs"`` is the per-contraction DFS
    probe (:func:`repro.core.kernels.coarsen_reach`), retained as the
    pinned differential reference.  ``"auto"`` (default) uses ``"pk"``
    exactly when the check is exact, i.e. no ``search_budget`` is set.

    ``search_budget`` bounds the per-edge acyclicity DFS; edges whose
    verification would expand more nodes are conservatively skipped (see
    :meth:`_FlatGraph.is_contractable`).  ``None`` (the default) keeps the
    check exact.  A budget requires the DFS method — its accounting is
    defined in expanded DFS nodes — so combining it with ``method="pk"``
    is an error.
    """
    if target_nodes < 1:
        raise DagError("target_nodes must be >= 1")
    if method not in ("auto", "pk", "dfs"):
        raise DagError(f"unknown coarsening method {method!r}")
    if method == "pk" and search_budget is not None:
        raise DagError("search_budget is a DFS-node budget; use method='dfs'")
    use_order = method == "pk" or (method == "auto" and search_budget is None)
    sequence = CoarseningSequence(original=dag)
    graph = _FlatGraph(dag, use_order=use_order)
    queue = _BucketQueue(graph, final_rejections=search_budget is None)

    def check(u: int, v: int) -> bool:
        return graph.is_contractable(u, v, search_budget)

    while graph.num_nodes > target_nodes:
        chosen = queue.select(light_fraction, check)
        if chosen is None:
            break
        queue.contract(*chosen)
        sequence.records.append(ContractionRecord(kept=chosen[0], removed=chosen[1]))
    return sequence
