"""Pure-Python reference implementations of the DAG kernels.

These are the seed (pre-CSR) list-of-lists implementations, kept verbatim in
spirit so that the vectorized CSR kernels in :mod:`repro.core.csr`, the
validity check and the classical-to-BSP conversion can be
differential-tested against a straightforward, obviously-correct baseline
(``tests/test_csr_kernels.py``, ``tests/test_validation_diff.py``).

All functions operate on plain successor/predecessor adjacency lists
(``list[list[int]]``) plus optional weight sequences; nothing here imports
the CSR container, so the two sides of every differential test share no
code.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.core.exceptions import CycleError

__all__ = [
    "adjacency_from_edges",
    "topological_order_ref",
    "levels_ref",
    "bottom_levels_ref",
    "descendants_ref",
    "ancestors_ref",
    "induced_edges_ref",
    "schedule_violations_ref",
    "classical_to_bsp_ref",
]


def adjacency_from_edges(
    num_nodes: int, edges: Sequence[tuple[int, int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists (edge insertion order) from an edge list."""
    succ: list[list[int]] = [[] for _ in range(num_nodes)]
    pred: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    return succ, pred


def topological_order_ref(
    succ: list[list[int]], pred: list[list[int]]
) -> list[int]:
    """Kahn's algorithm with a FIFO queue (the seed implementation)."""
    num_nodes = len(succ)
    indegree = [len(p) for p in pred]
    queue = deque(v for v in range(num_nodes) if indegree[v] == 0)
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if len(order) != num_nodes:
        raise CycleError("graph contains a directed cycle")
    return order


def levels_ref(succ: list[list[int]], pred: list[list[int]]) -> list[int]:
    """Top level per node by relaxation over a topological order."""
    levels = [0] * len(succ)
    for v in topological_order_ref(succ, pred):
        for w in succ[v]:
            if levels[v] + 1 > levels[w]:
                levels[w] = levels[v] + 1
    return levels


def bottom_levels_ref(
    succ: list[list[int]], pred: list[list[int]], work: Sequence[float]
) -> list[float]:
    """Bottom level per node by relaxation over a reversed topological order."""
    bl = [float(w) for w in work]
    for v in reversed(topological_order_ref(succ, pred)):
        if succ[v]:
            bl[v] = float(work[v]) + max(bl[u] for u in succ[v])
    return bl


def _reach(adjacency: list[list[int]], start: int) -> set[int]:
    seen: set[int] = set()
    stack = list(adjacency[start])
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(adjacency[u])
    return seen


def descendants_ref(succ: list[list[int]], v: int) -> set[int]:
    """All nodes reachable from ``v`` (excluding ``v``), DFS over lists."""
    return _reach(succ, v)


def ancestors_ref(pred: list[list[int]], v: int) -> set[int]:
    """All nodes that can reach ``v`` (excluding ``v``), DFS over lists."""
    return _reach(pred, v)


def induced_edges_ref(
    succ: list[list[int]], nodes: Sequence[int]
) -> list[tuple[int, int]]:
    """Relabelled edges of the induced subgraph, in seed iteration order."""
    index = {v: i for i, v in enumerate(nodes)}
    edges: list[tuple[int, int]] = []
    for v in nodes:
        for w in succ[v]:
            if w in index:
                edges.append((index[v], index[w]))
    return edges


def _redundant_deliveries(
    num_nodes: int,
    num_procs: int,
    procs: Sequence[int],
    supersteps: Sequence[int],
    steps: Sequence,
) -> list[bool]:
    """Which comm steps re-deliver a value that is already present on the target.

    A value is present on ``(node, proc)`` from superstep ``τ(node)`` on when
    ``proc`` computes the node, and from ``s + 1`` on when some comm step
    delivers it in phase ``s``.  Step ``i`` is redundant when the earliest
    *other* presence of its ``(node, target)`` pair is no later than its own
    arrival ``sᵢ + 1``.  The rule is order independent (two identical-arrival
    deliveries flag each other), and deliberately works on the raw arrival
    times: whether each individual step is *justified* at its source is a
    separate check.
    """
    arrivals: dict[tuple[int, int], list[int]] = {}
    for step in steps:
        arrivals.setdefault((step.node, step.target), []).append(step.superstep + 1)
    flags: list[bool] = []
    for step in steps:
        key = (step.node, step.target)
        arrival = step.superstep + 1
        earliest_other: float = float("inf")
        if 0 <= step.node < num_nodes and int(procs[step.node]) == step.target:
            earliest_other = int(supersteps[step.node])
        mine = arrivals[key]
        others = sorted(mine)
        others.remove(arrival)  # drop one copy of this step's own arrival
        if others:
            earliest_other = min(earliest_other, others[0])
        flags.append(earliest_other <= arrival)
    return flags


def schedule_violations_ref(
    num_nodes: int,
    num_procs: int,
    edges: Sequence[tuple[int, int]],
    procs: Sequence[int],
    supersteps: Sequence[int],
    steps: Sequence,
    max_violations: int = 20,
) -> list[str]:
    """The seed per-edge/per-step BSP validity walker (pre-vectorization).

    Kept so the vectorized :func:`repro.core.validation.schedule_violations`
    can be differential-tested against a straightforward baseline, also on
    degenerate inputs (out-of-range processors or node ids).  ``steps`` entries only need ``node``/``source``/``target``/
    ``superstep`` attributes and are formatted verbatim into the messages
    (pass the actual :class:`~repro.core.comm.CommStep` objects).

    Unlike the seed, the "communication schedule sanity" pass actually
    reports redundant deliveries (the seed built the ``arrivals`` dict and
    then did nothing with it).
    """
    steps = list(steps)
    violations: list[str] = []

    def add(message: str) -> bool:
        violations.append(message)
        return len(violations) >= max_violations

    # assignment range checks
    for v in range(num_nodes):
        if not 0 <= int(procs[v]) < num_procs:
            if add(f"node {v} assigned to invalid processor {int(procs[v])}"):
                return violations
        if int(supersteps[v]) < 0:
            if add(f"node {v} assigned to negative superstep {int(supersteps[v])}"):
                return violations

    # communication schedule sanity
    redundant = _redundant_deliveries(num_nodes, num_procs, procs, supersteps, steps)
    for step, is_redundant in zip(steps, redundant):
        if not 0 <= step.source < num_procs or not 0 <= step.target < num_procs:
            if add(f"comm step {step} references an invalid processor"):
                return violations
        if step.superstep < 0:
            if add(f"comm step {step} has a negative superstep"):
                return violations
        if step.source == step.target:
            if add(f"comm step {step} sends a value to its own processor"):
                return violations
        if is_redundant:
            if add(
                f"comm step {step} re-delivers the value of node {step.node} to "
                f"processor {step.target}, which already has it"
            ):
                return violations

    # Resolve availability with forwarding: iterate until fixpoint (the number
    # of steps is small; each pass relaxes at least one arrival or stops).
    available: dict[tuple[int, int], int] = {}
    for v in range(num_nodes):
        available[(v, int(procs[v]))] = int(supersteps[v])
    changed = True
    while changed:
        changed = False
        for step in steps:
            src_key = (step.node, step.source)
            if src_key in available and available[src_key] <= step.superstep:
                tgt_key = (step.node, step.target)
                arrival = step.superstep + 1
                if tgt_key not in available or arrival < available[tgt_key]:
                    available[tgt_key] = arrival
                    changed = True

    # every comm step must itself be justified
    for step in steps:
        src_key = (step.node, step.source)
        if src_key not in available or available[src_key] > step.superstep:
            if add(
                f"comm step {step}: value of node {step.node} is not available on "
                f"processor {step.source} by superstep {step.superstep}"
            ):
                return violations

    # precedence constraints
    for u, v in edges:
        pu, pv = int(procs[u]), int(procs[v])
        su, sv = int(supersteps[u]), int(supersteps[v])
        if pu == pv:
            if su > sv:
                if add(
                    f"edge ({u},{v}): predecessor on same processor {pu} but "
                    f"scheduled later (superstep {su} > {sv})"
                ):
                    return violations
        else:
            key = (u, pv)
            if key not in available or available[key] > sv:
                if add(
                    f"edge ({u},{v}): value of {u} never reaches processor {pv} "
                    f"before superstep {sv}"
                ):
                    return violations
    return violations


def classical_to_bsp_ref(
    pred: list[list[int]],
    procs: Sequence[int],
    start_times: Sequence[float],
) -> list[int]:
    """The seed per-predecessor superstep numbering of Appendix A.1.

    Visits nodes in order of increasing start time and opens a new superstep
    whenever a node has a cross-processor direct predecessor in the current
    one.  Returns the superstep of every node; the processor assignment is
    taken over unchanged by the conversion, so it is not recomputed here.
    """
    num_nodes = len(pred)
    supersteps = [-1] * num_nodes
    order = sorted(range(num_nodes), key=lambda v: (start_times[v], v))
    current = 0
    for v in order:
        needed = current
        for u in pred[v]:
            if procs[u] != procs[v]:
                if supersteps[u] >= needed:
                    needed = supersteps[u] + 1
            else:
                if supersteps[u] > needed:
                    needed = supersteps[u]
        if needed > current:
            current = needed
        supersteps[v] = current
    return supersteps
