"""Communication schedules for BSP schedules.

A communication schedule ``Γ`` is a set of 4-tuples ``(v, p1, p2, s)``
meaning that the output value of node ``v`` is sent from processor ``p1`` to
processor ``p2`` in the communication phase of superstep ``s``
(paper Section 3.2).

Most of the lightweight schedulers in the framework (the converted
baselines, ``BSPg``, ``Source`` and the node-move hill climbing ``HC``)
never construct ``Γ`` explicitly; they rely on the *lazy* communication
schedule, where every value that crosses a processor boundary is sent
directly from the processor that computed it, in the last possible
communication phase before it is needed (Appendix A).  This module derives
that lazy schedule once, as int64 columns (:func:`lazy_transfers`), and
builds from them the ``Γ`` objects and the per-target communication
*windows* used by the communication-schedule optimisers (``HCcs`` and
``ILPcs``).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .csr import group_min_by_pair
from .exceptions import ScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dag import ComputationalDAG

__all__ = [
    "CommStep",
    "CommWindow",
    "comm_columns",
    "lazy_comm_schedule",
    "lazy_transfers",
    "required_transfers",
]


class CommStep(NamedTuple):
    """One entry ``(v, p1, p2, s)`` of a communication schedule ``Γ``."""

    node: int
    source: int
    target: int
    superstep: int


class CommWindow(NamedTuple):
    """The feasible superstep window for one required transfer.

    A value ``node`` computed on ``source`` that is needed on ``target`` can
    be sent in any communication phase ``s`` with
    ``earliest <= s <= latest`` where ``earliest = τ(node)`` and
    ``latest = (first superstep that needs it on target) - 1``.
    """

    node: int
    source: int
    target: int
    earliest: int
    latest: int


def comm_columns(steps: list[CommStep]) -> tuple[np.ndarray, ...]:
    """The four fields of ``steps`` as parallel int64 columns, in list order.

    ``np.fromiter`` over the flattened field stream is ~7x faster than
    ``np.asarray`` on the list of named tuples (no per-row shape discovery).
    """
    table = np.fromiter(
        chain.from_iterable(steps), dtype=np.int64, count=4 * len(steps)
    ).reshape(len(steps), 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


def lazy_transfers(
    dag: "ComputationalDAG",
    procs,
    supersteps,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lazy communication schedule of ``(π, τ)`` as int64 columns.

    Returns ``(node, source, target, phase)``: one row for every node ``v``
    and every processor ``q != π(v)`` that computes at least one direct
    successor of ``v``.  The value is sent from ``source = π(v)`` to
    ``target = q`` in ``phase``, one before the first superstep in which
    ``q`` needs it.  Rows are sorted by ``(node, target)``.

    The cross-processor edges are filtered with one mask over the DAG's CSR
    edge arrays, grouped by ``(v, q)`` with a lexsort, and the first
    (minimal-superstep) member of every group becomes the row.  This is the
    one derivation of the lazy transfers: :func:`required_transfers`,
    :func:`lazy_comm_schedule`, lazy validation and costing, compaction and
    ``HCcs`` all read it.

    Raises
    ------
    ScheduleError
        If some successor of ``v`` on another processor is scheduled no
        later than ``τ(v)``, in which case no valid direct transfer exists.
    """
    procs = np.asarray(procs, dtype=np.int64)
    supersteps = np.asarray(supersteps, dtype=np.int64)
    src, dst = dag.edge_arrays()
    cross = procs[src] != procs[dst]
    if not cross.any():
        return tuple(np.empty(0, dtype=np.int64) for _ in range(4))
    cross_dst = dst[cross]
    node, target, need = group_min_by_pair(
        src[cross], procs[cross_dst], supersteps[cross_dst]
    )
    computed = supersteps[node]
    bad = need <= computed
    if bad.any():
        i = int(np.argmax(bad))
        raise ScheduleError(
            f"node {int(node[i])} (proc {int(procs[node[i]])}, superstep "
            f"{int(computed[i])}) is needed on proc {int(target[i])} already in "
            f"superstep {int(need[i])}; no valid communication phase exists"
        )
    return node, procs[node], target, need - 1


def required_transfers(
    dag: "ComputationalDAG",
    procs,
    supersteps,
) -> list[CommWindow]:
    """All transfers required by the assignment ``(π, τ)``, with their windows.

    For every node ``v`` and every processor ``q != π(v)`` that computes at
    least one direct successor of ``v``, a transfer of ``v`` from ``π(v)``
    to ``q`` is required.  The earliest phase is ``τ(v)`` and the latest is
    the lazy phase of :func:`lazy_transfers`, one before the first
    superstep in which ``q`` needs the value.  Windows come back sorted by
    ``(node, target)``.

    Raises
    ------
    ScheduleError
        If some successor of ``v`` on another processor is scheduled no
        later than ``τ(v)``, in which case no valid direct transfer exists.
    """
    node, source, target, latest = lazy_transfers(dag, procs, supersteps)
    earliest = np.asarray(supersteps, dtype=np.int64)[node]
    return list(
        map(
            CommWindow,
            node.tolist(),
            source.tolist(),
            target.tolist(),
            earliest.tolist(),
            latest.tolist(),
        )
    )


def lazy_comm_schedule(
    dag: "ComputationalDAG",
    procs,
    supersteps,
) -> frozenset[CommStep]:
    """The lazy communication schedule for the assignment ``(π, τ)``.

    Every required value is sent directly from the processor that computed
    it, in the last possible communication phase (``latest`` of its window).
    """
    columns = lazy_transfers(dag, procs, supersteps)
    return frozenset(map(CommStep, *(column.tolist() for column in columns)))


def eager_comm_schedule(
    dag: "ComputationalDAG",
    procs,
    supersteps,
) -> frozenset[CommStep]:
    """The eager variant: every required value is sent as early as possible.

    Provided for completeness and for testing the communication-schedule
    optimisers (both lazy and eager schedules are valid; their costs differ
    only in how transfers are packed into h-relations).
    """
    return frozenset(
        CommStep(w.node, w.source, w.target, w.earliest)
        for w in required_transfers(dag, procs, supersteps)
    )


def comm_schedule_from_choices(
    windows: Iterable[CommWindow],
    choices: Iterable[int],
) -> frozenset[CommStep]:
    """Build ``Γ`` from explicit per-transfer superstep choices.

    ``choices[i]`` must lie inside ``windows[i]``'s feasible range.
    """
    steps = []
    for window, s in zip(windows, choices, strict=True):
        if not window.earliest <= s <= window.latest:
            raise ScheduleError(
                f"superstep {s} outside window [{window.earliest}, {window.latest}] "
                f"for transfer of node {window.node} to proc {window.target}"
            )
        steps.append(CommStep(window.node, window.source, window.target, int(s)))
    return frozenset(steps)
