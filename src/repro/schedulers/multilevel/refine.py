"""Projection of schedules between coarsening levels (paper §4.5).

Projecting a schedule of a quotient DAG down to the original DAG simply
gives every original node the processor/superstep of its cluster; because
the quotient was acyclic and its schedule valid, the projected schedule is
always a valid BSP schedule of the original DAG.  Projecting *up* (from an
assignment of original nodes that is constant on every cluster) is the
inverse operation used between refinement bursts.

Both directions are plain gathers over the quotient's index arrays.  The
refinement loop works on the raw ``(π, τ)`` arrays
(:func:`restrict_arrays`), so a per-level hill-climbing burst needs neither
schedule validation nor an intermediate :class:`BspSchedule` object — the
cluster-constant projection of a valid coarse schedule is valid by
construction.
:func:`unchanged_nodes` finds the nodes whose hill-climbing scores an
uncoarsening step cannot change, so that a converged level can hand its
verdict to the next one.
"""

from __future__ import annotations

import numpy as np

from ...core.machine import BspMachine
from ...core.schedule import BspSchedule
from .coarsen import QuotientDag

__all__ = [
    "project_arrays",
    "project_to_original",
    "restrict_arrays",
    "restrict_to_quotient",
    "unchanged_nodes",
]


def project_to_original(
    quotient: QuotientDag,
    coarse_schedule: BspSchedule,
) -> tuple[np.ndarray, np.ndarray]:
    """Assignment arrays for the original DAG induced by a quotient schedule."""
    procs = coarse_schedule.procs[quotient.orig_to_coarse]
    supersteps = coarse_schedule.supersteps[quotient.orig_to_coarse]
    return procs.copy(), supersteps.copy()


def project_arrays(
    quotient: QuotientDag,
    coarse_procs: np.ndarray,
    coarse_supersteps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Array-level :func:`project_to_original` (no schedule object needed)."""
    return (
        coarse_procs[quotient.orig_to_coarse].copy(),
        coarse_supersteps[quotient.orig_to_coarse].copy(),
    )


def restrict_arrays(
    quotient: QuotientDag,
    procs: np.ndarray,
    supersteps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Assignment arrays of the quotient induced by a cluster-constant original one.

    Every coarse node takes the assignment of its representative original
    node — one fancy-indexing gather per array instead of the historical
    per-cluster Python loop.  The caller must guarantee that all original
    nodes of a cluster share the same assignment (which the multilevel
    scheduler maintains as an invariant).
    """
    reps = np.asarray(quotient.coarse_to_rep, dtype=np.int64)
    return (
        np.asarray(procs, dtype=np.int64)[reps],
        np.asarray(supersteps, dtype=np.int64)[reps],
    )


def restrict_to_quotient(
    quotient: QuotientDag,
    machine: BspMachine,
    procs: np.ndarray,
    supersteps: np.ndarray,
) -> BspSchedule:
    """Schedule of the quotient DAG induced by a cluster-constant original assignment."""
    coarse_procs, coarse_steps = restrict_arrays(quotient, procs, supersteps)
    return BspSchedule(quotient.dag, machine, coarse_procs, coarse_steps)


def unchanged_nodes(coarse: QuotientDag, fine: QuotientDag) -> np.ndarray:
    """Boolean mask of the nodes of ``fine`` that an uncoarsening step left alone.

    ``fine`` must undo some of ``coarse``'s contractions, so every cluster
    of ``fine`` lies inside one of ``coarse``.  A node of ``fine`` is
    unchanged when its cluster kept all its members and no predecessor's
    cluster split.  Such a node has the same weights and the same
    predecessors, in the same order (a quotient keeps the original edge
    order, and undoing contractions keeps the order of the
    representatives), as its cluster in ``coarse``.  When the assignment
    is constant on ``coarse``'s clusters (a split cluster's halves sit on
    its processor and superstep), its successors and its predecessors'
    other successors also sit on the same (processor, superstep) pairs as
    before.  So its hill-climbing scores are those of its cluster, as long
    as the two levels' work and traffic rows agree.
    """
    coarse_sizes = np.bincount(coarse.orig_to_coarse)
    fine_sizes = np.bincount(fine.orig_to_coarse)
    reps = np.asarray(fine.coarse_to_rep, dtype=np.int64)
    unchanged = fine_sizes == coarse_sizes[coarse.orig_to_coarse[reps]]
    src, dst = fine.dag.edge_arrays()
    split = ~unchanged  # this node is one part of a split cluster
    unchanged[dst[split[src]]] = False
    return unchanged
