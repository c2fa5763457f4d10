"""The seed coarsener: a full edge rescan-and-sort on every contraction.

:func:`repro.schedulers.multilevel.coarsen_dag` keeps the candidate edges
in a bucket queue and contracts on flat arrays; this is the direct
spelling it replaced, on a dict-of-sets graph, kept as the differential
reference of ``tests/test_multilevel.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dag import ComputationalDAG
from repro.core.exceptions import DagError
from repro.schedulers.multilevel import CoarseningSequence, ContractionRecord

__all__ = ["coarsen_dag_reference"]


class _MutableGraph:
    """Working representation used while contracting edges."""

    def __init__(self, dag: ComputationalDAG) -> None:
        self.succ: dict[int, set[int]] = {
            v: set(dag.succ(v).tolist()) for v in dag.nodes()
        }
        self.pred: dict[int, set[int]] = {
            v: set(dag.pred(v).tolist()) for v in dag.nodes()
        }
        self.work: dict[int, float] = dict(enumerate(dag.work_weights.tolist()))
        self.comm: dict[int, float] = dict(enumerate(dag.comm_weights.tolist()))

    @property
    def num_nodes(self) -> int:
        return len(self.succ)

    def node_ids(self) -> list[int]:
        return list(self.succ)

    def edge_iter(self):
        return ((u, v) for u, targets in self.succ.items() for v in targets)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, targets in self.succ.items() for v in targets]

    def incident_edges(self, v: int) -> set[tuple[int, int]]:
        """All current edges with ``v`` as an endpoint."""
        return {(v, w) for w in self.succ[v]} | {(w, v) for w in self.pred[v]}

    def is_contractable(self, u: int, v: int, budget: int | None = None) -> bool:
        """True when the only ``u -> v`` path is the direct edge.

        Two exact fast paths cover the common cases in O(1): when ``v`` is
        the only successor of ``u`` every alternative path would have to
        leave ``u`` through ``v``, and when ``u`` is the only predecessor of
        ``v`` every alternative path would have to enter ``v`` through
        ``u``.  Otherwise a DFS over the descendants of ``u`` looks for
        another route to ``v``; with a ``budget``, edges whose verification
        would expand more than that many nodes are conservatively treated as
        *not* contractable (never unsafe — a skipped edge can only delay
        coarsening, a false positive could create a cycle).
        """
        succ_u = self.succ[u]
        if len(succ_u) == 1:
            return True
        if len(self.pred[v]) == 1:
            return True
        stack = [w for w in succ_u if w != v]
        seen = set(stack)
        while stack:
            x = stack.pop()
            if budget is not None:
                budget -= 1
                if budget < 0:
                    return False
            for w in self.succ[x]:
                if w == v:
                    return False
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return True

    def contract(self, u: int, v: int) -> None:
        """Merge ``v`` into ``u`` (the edge ``(u, v)`` must exist and be contractable)."""
        self.succ[u].discard(v)
        self.pred[v].discard(u)
        for w in self.succ.pop(v):
            self.pred[w].discard(v)
            if w != u:
                self.succ[u].add(w)
                self.pred[w].add(u)
        for w in self.pred.pop(v):
            self.succ[w].discard(v)
            if w != u:
                self.pred[u].add(w)
                self.succ[w].add(u)
        self.work[u] += self.work.pop(v)
        self.comm[u] += self.comm.pop(v)


def coarsen_dag_reference(
    dag: ComputationalDAG,
    target_nodes: int,
    light_fraction: float = 1.0 / 3.0,
) -> CoarseningSequence:
    """The seed coarsener: full edge rescan-and-sort on every contraction.

    Retained for differential tests.  Note the two documented rule
    deviations of the seed relative to :func:`coarsen_dag`: tie groups at
    the lightest-third boundary are cut at an arbitrary edge id, and the
    fallback over the heavier edges scans in ascending work order rather
    than the paper's comm-weight order.
    """
    if target_nodes < 1:
        raise DagError("target_nodes must be >= 1")
    sequence = CoarseningSequence(original=dag)
    graph = _MutableGraph(dag)

    while graph.num_nodes > target_nodes:
        edges = graph.edges()
        if not edges:
            break
        edges.sort(key=lambda edge: (graph.work[edge[0]] + graph.work[edge[1]], edge))
        cutoff = max(1, int(np.ceil(len(edges) * light_fraction)))
        light = edges[:cutoff]
        light.sort(key=lambda edge: (-graph.comm[edge[0]], edge))
        chosen: tuple[int, int] | None = None
        for candidate in light:
            if graph.is_contractable(*candidate):
                chosen = candidate
                break
        if chosen is None:
            # fall back to scanning the remaining edges (rare)
            for candidate in edges[cutoff:]:
                if graph.is_contractable(*candidate):
                    chosen = candidate
                    break
        if chosen is None:
            break
        graph.contract(*chosen)
        sequence.records.append(ContractionRecord(kept=chosen[0], removed=chosen[1]))
    return sequence
