"""Per-candidate oracle of the BSPg initialiser.

At every pick it recomputes the score of every pool candidate:
for every predecessor ``u`` of a candidate ``v`` it asks whether ``u``,
or any successor of ``u``, is already assigned to the processor, and if
so adds ``c(u) / outdeg(u)``.  The program keeps per-processor presence
bits and cached scores instead.  The event loop, the superstep-closing
rule and the pick rule (highest score, smaller node id on ties) are the
same, so both must give the same ``procs`` and ``supersteps``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core import BspMachine, ComputationalDAG

__all__ = ["bsp_greedy_reference"]


def bsp_greedy_reference(
    dag: ComputationalDAG, machine: BspMachine, idle_fraction: float = 0.5
) -> tuple[list[int], list[int]]:
    """BSPg's ``(procs, supersteps)`` as two lists."""
    n = dag.num_nodes
    num_procs = machine.num_procs
    procs = np.zeros(n, dtype=np.int64)
    supersteps = np.zeros(n, dtype=np.int64)
    if n == 0:
        return [], []

    assigned = np.zeros(n, dtype=bool)
    remaining_preds = dag.in_degrees()
    outdeg = np.maximum(dag.out_degrees(), 1)

    ready: set[int] = set(dag.sources())
    ready_all: set[int] = set(ready)
    ready_proc: list[set[int]] = [set() for _ in range(num_procs)]
    free = [True] * num_procs

    superstep = 0
    end_step = False
    unassigned = n
    # Heap of (finish_time, node); a sentinel node of -1 marks the
    # "time 0" entry that opens every superstep.
    finish_events: list[tuple[float, int]] = [(0.0, -1)]
    idle_threshold = max(1, int(np.ceil(idle_fraction * num_procs)))

    def choose_node(proc: int) -> int | None:
        """Pick the best assignable node for ``proc`` (Appendix A.2 score)."""
        pool = ready_proc[proc] if ready_proc[proc] else ready_all
        if not pool:
            return None
        best_node = None
        best_score = -1.0
        for v in pool:
            score = 0.0
            for u in dag.pred(v).tolist():
                on_proc = assigned[u] and procs[u] == proc
                if not on_proc:
                    on_proc = any(
                        assigned[w] and procs[w] == proc
                        for w in dag.succ(u).tolist()
                    )
                if on_proc:
                    score += dag.comm(u) / outdeg[u]
            if score > best_score or (score == best_score and (best_node is None or v < best_node)):
                best_score = score
                best_node = v
        return best_node

    def assignable(proc: int) -> bool:
        return free[proc] and bool(ready_proc[proc] or ready_all)

    while unassigned > 0:
        if end_step and not finish_events:
            # open the next superstep: everything that is ready becomes
            # available to every processor
            for pool in ready_proc:
                pool.clear()
            ready_all = set(ready)
            superstep += 1
            end_step = False
            finish_events = [(0.0, -1)]

        if not finish_events:
            # Nothing running and the step was not explicitly closed:
            # force a new superstep (can happen when every ready node
            # needs cross-processor data).
            end_step = True
            continue

        time_now, _ = finish_events[0]
        # process *all* nodes finishing at this time
        while finish_events and finish_events[0][0] == time_now:
            _, node = heapq.heappop(finish_events)
            if node < 0:
                continue
            free[int(procs[node])] = True
            for succ in dag.succ(node).tolist():
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    ready.add(succ)
                    # can `succ` still be computed inside this superstep
                    # on the finishing node's processor?
                    proc = int(procs[node])
                    if all(
                        (assigned[u] and (procs[u] == proc or supersteps[u] < superstep))
                        for u in dag.pred(succ).tolist()
                    ):
                        ready_proc[proc].add(succ)

        if not end_step:
            progress = True
            while progress:
                progress = False
                for proc in range(num_procs):
                    if not assignable(proc):
                        continue
                    node = choose_node(proc)
                    if node is None:
                        continue
                    ready.discard(node)
                    ready_all.discard(node)
                    for pool in ready_proc:
                        pool.discard(node)
                    procs[node] = proc
                    supersteps[node] = superstep
                    assigned[node] = True
                    unassigned -= 1
                    free[proc] = False
                    heapq.heappush(finish_events, (time_now + dag.work(node), node))
                    progress = True

        idle_procs = sum(
            1 for proc in range(num_procs) if free[proc] and not ready_proc[proc]
        )
        if not ready_all and idle_procs >= idle_threshold:
            end_step = True

    return procs.tolist(), supersteps.tolist()
