"""Plain-loop oracle of the BL-EST and ETF list schedulers.

A per-pair walk: at every pick it re-derives, from the node's
predecessors, the start time of every (ready node, processor) pair it
looks at, where the program keeps one data-ready row per ready node:

    est(v, q) = max(max over preds u of finish(u) + g * c(u) * λ̄ * [π(u) != q],
                    ready time of q)

with 0 for the first term of a source.  ETF takes the pair with the least
key ``(est, -bottom level, node, proc)``.  BL-EST takes the ready node of
largest bottom level (smaller id on ties) and scans the processors in
order, moving to a later one only when its start time is lower by more
than ``1e-12``.

Every arrival is the same float expression as in the program, so the
oracle's start and finish times must equal the program's exactly.
"""

from __future__ import annotations

from repro.core import BspMachine, ComputationalDAG

__all__ = ["bl_est_reference", "etf_reference"]


def _bottom_levels(dag: ComputationalDAG) -> list[float]:
    """``bl(v) = w(v) + max over successors bl(u)``, ``w(v)`` for a sink."""
    work = dag.work_weights.tolist()
    levels = list(work)
    for v in reversed(dag.topological_order()):
        succs = dag.successors(v)
        if succs:
            levels[v] = work[v] + max(levels[u] for u in succs)
    return levels


def _walk(dag: ComputationalDAG, machine: BspMachine, pick):
    n = dag.num_nodes
    num_procs = machine.num_procs
    work = dag.work_weights.tolist()
    preds = [dag.predecessors(v) for v in range(n)]
    succs = [dag.successors(v) for v in range(n)]
    multiplier = machine.average_numa_multiplier
    delays = [machine.g * c * multiplier for c in dag.comm_weights.tolist()]
    bottom_levels = _bottom_levels(dag)
    procs = [0] * n
    start_times = [0.0] * n
    finish_times = [0.0] * n
    proc_ready = [0.0] * num_procs

    def earliest_start(node: int, proc: int) -> float:
        data_ready = 0.0
        if preds[node]:
            data_ready = max(
                finish_times[u] + delays[u] * (procs[u] != proc) for u in preds[node]
            )
        return max(data_ready, proc_ready[proc])

    remaining = [len(preds[v]) for v in range(n)]
    ready = {v for v in range(n) if remaining[v] == 0}
    while ready:
        node, proc, est = pick(ready, num_procs, bottom_levels, earliest_start)
        ready.discard(node)
        procs[node] = proc
        start_times[node] = est
        finish_times[node] = est + work[node]
        proc_ready[proc] = finish_times[node]
        for succ in succs[node]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.add(succ)
    return procs, start_times, finish_times


def _etf_pick(ready, num_procs, bottom_levels, earliest_start):
    best = None
    for node in sorted(ready):
        for proc in range(num_procs):
            key = (earliest_start(node, proc), -bottom_levels[node], node, proc)
            if best is None or key < best:
                best = key
    est, _, node, proc = best
    return node, proc, est


def _bl_est_pick(ready, num_procs, bottom_levels, earliest_start):
    node = max(ready, key=lambda v: (bottom_levels[v], -v))
    best_proc = 0
    best_est = float("inf")
    for proc in range(num_procs):
        est = earliest_start(node, proc)
        if est < best_est - 1e-12:
            best_est = est
            best_proc = proc
    return node, best_proc, best_est


def etf_reference(dag: ComputationalDAG, machine: BspMachine):
    """ETF's ``(procs, start_times, finish_times)`` as three lists."""
    return _walk(dag, machine, _etf_pick)


def bl_est_reference(dag: ComputationalDAG, machine: BspMachine):
    """BL-EST's ``(procs, start_times, finish_times)`` as three lists."""
    return _walk(dag, machine, _bl_est_pick)
