"""Vectorized kernels over CSR (compressed sparse row) adjacency arrays.

A DAG's adjacency is stored as two CSR array pairs (see
:class:`repro.core.dag.ComputationalDAG`):

* ``succ_indptr`` / ``succ_indices`` — row ``v`` is the slice
  ``succ_indices[succ_indptr[v]:succ_indptr[v + 1]]`` of direct successors,
* ``pred_indptr`` / ``pred_indices`` — the same for direct predecessors.

Rows preserve *edge insertion order*, which keeps every neighbourhood
iteration bit-for-bit identical to the historical list-of-lists container
(schedulers break ties by traversal order, so preserving it keeps their
output schedules unchanged).

The functions in this module are free functions over plain numpy arrays so
that they can be differential-tested against the pure-Python reference
implementations in :mod:`repro.core.reference` and benchmarked in isolation
(``benchmarks/bench_dag_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from .exceptions import CycleError

__all__ = [
    "build_csr",
    "dedupe_edges",
    "gather_rows",
    "group_min_by_pair",
    "topological_levels",
    "bottom_levels_csr",
    "reachable_mask",
    "has_path_csr",
    "NO_ENTRY",
]

_INT = np.int64

#: Sentinel for "no entry" in grouped min tables (larger than any superstep).
NO_ENTRY = np.iinfo(np.int64).max


def build_csr(
    num_nodes: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build ``(indptr, indices)`` from parallel edge arrays.

    The relative order of edges sharing a source is preserved (stable sort),
    so row ``v`` lists the targets in edge insertion order.
    """
    sources = np.asarray(sources, dtype=_INT)
    targets = np.asarray(targets, dtype=_INT)
    counts = np.bincount(sources, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=_INT)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(sources, kind="stable")
    indices = np.ascontiguousarray(targets[order])
    return indptr, indices


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``nodes``.

    Returns ``(values, offsets)`` where ``values`` is the concatenation of
    the rows (in the order given by ``nodes``) and ``offsets`` has length
    ``len(nodes) + 1`` with row ``k`` occupying
    ``values[offsets[k]:offsets[k + 1]]``.
    """
    nodes = np.asarray(nodes, dtype=_INT)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    offsets = np.zeros(nodes.size + 1, dtype=_INT)
    np.add.accumulate(counts, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=indices.dtype), offsets
    # classic ragged gather: per-element position = row start + intra-row rank
    positions = (starts - offsets[:-1]).repeat(counts) + np.arange(total, dtype=_INT)
    return indices[positions], offsets


def dedupe_edges(
    num_nodes: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate ``(source, target)`` pairs, keeping first occurrences.

    The surviving edges stay in their original order, which preserves the
    per-row neighbour order of any CSR built from them.
    """
    if sources.size == 0:
        return sources, targets
    keys = sources * np.int64(max(num_nodes, 1)) + targets
    _, first_positions = np.unique(keys, return_index=True)
    keep = np.sort(first_positions)
    return sources[keep], targets[keep]


def group_min_by_pair(
    u: np.ndarray, q: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the minimal ``values`` entry of every distinct ``(u, q)`` pair.

    Returns the filtered ``(u, q, values)`` arrays sorted by ``(u, q)``.
    This is the shared "first need" kernel of the lazy communication
    schedule: for every (node, foreign processor) pair, the earliest
    superstep in which the node's value is required there.
    """
    order = np.lexsort((values, q, u))
    u, q, values = u[order], q[order], values[order]
    first = np.ones(u.size, dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (q[1:] != q[:-1])
    return u[first], q[first], values[first]


def topological_levels(
    num_nodes: int,
    succ_indptr: np.ndarray,
    succ_indices: np.ndarray,
    pred_indptr: np.ndarray,
) -> np.ndarray:
    """Top level (longest edge-path from any source) of every node.

    Runs a level-synchronous Kahn sweep: the whole zero-indegree frontier is
    retired per round with one ragged gather and one ``bincount``, so the
    work is ``O(n + m)`` numpy operations with ``O(depth)`` Python
    iterations.

    Raises
    ------
    CycleError
        If the graph contains a directed cycle.
    """
    levels = np.zeros(num_nodes, dtype=_INT)
    indegree = np.diff(pred_indptr).copy()
    frontier = np.flatnonzero(indegree == 0)
    processed = 0
    level = 0
    while frontier.size:
        levels[frontier] = level
        processed += frontier.size
        targets, _ = gather_rows(succ_indptr, succ_indices, frontier)
        if targets.size:
            # touch only the reached nodes (O(frontier edges), not O(n)):
            # unique-sort the targets, subtract multiplicities, keep zeros
            unique_targets, counts = np.unique(targets, return_counts=True)
            indegree[unique_targets] -= counts
            frontier = unique_targets[indegree[unique_targets] == 0]
        else:
            frontier = targets
        level += 1
    if processed != num_nodes:
        raise CycleError("graph contains a directed cycle")
    return levels


def bottom_levels_csr(
    levels: np.ndarray,
    succ_indptr: np.ndarray,
    succ_indices: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Bottom level ``bl(v) = w(v) + max_{(v,u)} bl(u)`` of every node.

    Nodes are processed level group by level group from the sinks upward;
    within one group every segment maximum over the successor rows is
    computed with a single ``np.maximum.reduceat``.
    """
    num_nodes = levels.size
    bl = np.array(work, dtype=np.float64, copy=True)
    if num_nodes == 0:
        return bl
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    # boundaries of the level groups inside ``order``
    boundaries = np.flatnonzero(np.diff(sorted_levels)) + 1
    group_starts = np.concatenate(([0], boundaries))
    group_ends = np.concatenate((boundaries, [num_nodes]))
    for g in range(group_starts.size - 1, -1, -1):
        nodes = order[group_starts[g] : group_ends[g]]
        counts = succ_indptr[nodes + 1] - succ_indptr[nodes]
        with_succ = nodes[counts > 0]
        if with_succ.size == 0:
            continue
        targets, offsets = gather_rows(succ_indptr, succ_indices, with_succ)
        seg_max = np.maximum.reduceat(bl[targets], offsets[:-1])
        bl[with_succ] = work[with_succ] + seg_max
    return bl


def reachable_mask(
    indptr: np.ndarray, indices: np.ndarray, start: int, num_nodes: int
) -> np.ndarray:
    """Boolean mask of all nodes reachable from ``start`` via >= 1 edge.

    Frontier-at-a-time BFS: every round gathers the neighbourhoods of the
    whole frontier at once instead of popping nodes one by one.
    """
    seen = np.zeros(num_nodes, dtype=bool)
    frontier = np.unique(indices[indptr[start] : indptr[start + 1]])
    seen[frontier] = True
    while frontier.size:
        targets, _ = gather_rows(indptr, indices, frontier)
        targets = targets[~seen[targets]]
        frontier = np.unique(targets)
        seen[frontier] = True
    return seen


def has_path_csr(
    indptr: np.ndarray, indices: np.ndarray, source: int, target: int, num_nodes: int
) -> bool:
    """Whether ``target`` is reachable from ``source`` via >= 1 edge.

    Same frontier BFS as :func:`reachable_mask` but exits as soon as the
    target enters the frontier, so e.g. cycle checks on an adjacent edge
    stop after one round.
    """
    seen = np.zeros(num_nodes, dtype=bool)
    frontier = np.unique(indices[indptr[source] : indptr[source + 1]])
    seen[frontier] = True
    while frontier.size:
        if seen[target]:
            return True
        targets, _ = gather_rows(indptr, indices, frontier)
        targets = targets[~seen[targets]]
        frontier = np.unique(targets)
        seen[frontier] = True
    return bool(seen[target])
