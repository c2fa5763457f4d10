"""Validity checking for BSP schedules (paper Section 3.2).

A BSP schedule ``(π, τ, Γ)`` is valid when

* every node is assigned to a processor in ``0..P-1`` and a superstep
  ``>= 0``;
* for every edge ``(u, v)``: if ``π(u) == π(v)`` then ``τ(u) <= τ(v)``,
  otherwise there is an entry ``(u, p1, π(v), s) ∈ Γ`` with ``s < τ(v)``;
* for every ``(v, p1, p2, s) ∈ Γ``: either ``π(v) == p1`` and
  ``τ(v) <= s``, or there is another entry ``(v, p', p1, s') ∈ Γ`` with
  ``s' < s`` (the value reached ``p1`` earlier via forwarding);
* no entry of ``Γ`` re-delivers a value that is already present on its
  target processor no later than the delivery would arrive (a redundant
  transfer, e.g. a duplicate send or a forwarding loop back to the
  computing processor).

Implementation notes
--------------------
All checks run as vectorized passes over the DAG's CSR edge arrays and the
comm-step columns: assignment ranges, per-step sanity and redundant
deliveries, same-processor precedence and cross-processor availability are
each one numpy mask; only the (bounded, ``max_violations``-capped) message
rendering walks the flagged indices one by one.  Value availability under
forwarding keeps the seed's fixpoint semantics but relaxes whole step
columns per round against a ``(node, processor)`` availability table.

The table is dense (one cell per ``(node, processor)`` pair) up to
``_MAX_DENSE_CELLS`` cells.  Above that, the same passes run against a
*sparse unique-key* table: only the ``(node, processor)`` pairs that can
ever carry a value — computing processors, comm-step endpoints, and edge
targets' processors — are materialised, compacted with one ``np.unique``
and addressed by ``np.searchsorted``.

Processor and node ids outside the machine and the DAG index no table, so
the table is keyed on the ids present instead: processors by their rank
among all processor ids of the schedule (one ``np.unique``), unknown
comm-step nodes on slots after the DAG's ``n`` nodes.  The keys only ever
compare ids for equality, so ranking changes no verdict, and the messages
quote the ids as given.

A lazy schedule (``comm_schedule=None``) is checked on the edge arrays
alone: processors in range, supersteps ``>= 0``, ``τ(u) <= τ(v)`` on every
same-processor edge and ``τ(u) < τ(v)`` on every cross-processor one.
These hold exactly when the lazy ``Γ`` passes every check above, so the
lazy transfers are derived only to word the messages of a rejected
schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .comm import CommStep, comm_columns, lazy_transfers
from .exceptions import ScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dag import ComputationalDAG
    from .machine import BspMachine

__all__ = ["validate_schedule", "schedule_violations"]

_INF = np.iinfo(np.int64).max
_NO_STEPS = np.empty(0, dtype=np.int64)
# above this many (node, processor) cells the dense availability table is
# not worth its memory; such instances use the sparse unique-key table
_MAX_DENSE_CELLS = 64_000_000


def _lazy_schedule_valid(
    num_procs: int,
    procs: np.ndarray,
    supersteps: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> bool:
    """Whether ``(π, τ)`` is valid under its lazy communication schedule.

    Exact: the lazy ``Γ`` sends each value once per foreign processor that
    needs it, from the processor that computed it, in the phase just before
    its first need there.  Given in-range processors and supersteps
    ``>= 0``, every such transfer is in range, never a self-send or a
    re-delivery, justified (its phase is ``>= τ(u)`` exactly when every
    cross-processor edge has ``τ(u) < τ(v)``) and on time for every edge it
    serves.  So only the assignment ranges and the two edge orders remain.
    """
    if (
        procs.min(initial=0) < 0
        or procs.max(initial=-1) >= num_procs
        or supersteps.min(initial=0) < 0
    ):
        return False
    su = supersteps[src]
    sv = supersteps[dst]
    return not ((su > sv) | ((su == sv) & (procs[src] != procs[dst]))).any()


def _redundant_mask(
    node: np.ndarray,
    target: np.ndarray,
    superstep: np.ndarray,
    base_avail: np.ndarray,
) -> np.ndarray:
    """Which comm steps re-deliver a value already present on their target.

    ``base_avail[i]`` is the superstep from which step ``i``'s value is
    present on its target *without* any comm step (``τ(node)`` when the
    target computes the node, a large sentinel otherwise).  Step ``i`` is
    redundant when the earliest other presence of its ``(node, target)``
    pair — computed per group with one lexsort — is no later than its own
    arrival.
    """
    arrival = superstep + 1
    key = node * (target.max() + 1) + target
    order = np.lexsort((arrival, key))
    k_sorted = key[order]
    a_sorted = arrival[order]
    boundary = np.concatenate(([True], k_sorted[1:] != k_sorted[:-1]))
    starts = np.flatnonzero(boundary)
    group_of = np.cumsum(boundary) - 1
    first = a_sorted[starts]  # minimal arrival per group
    is_first = a_sorted == first[group_of]
    first_count = np.add.reduceat(is_first.astype(np.int64), starts)
    second = np.minimum.reduceat(np.where(is_first, _INF, a_sorted), starts)
    # earliest arrival of a *different* step with the same key
    other = np.where(
        (a_sorted > first[group_of]) | (first_count[group_of] >= 2),
        first[group_of],
        second[group_of],
    )
    redundant_sorted = np.minimum(other, base_avail[order]) <= a_sorted
    redundant = np.empty(arrival.size, dtype=bool)
    redundant[order] = redundant_sorted
    return redundant


def schedule_violations(
    dag: "ComputationalDAG",
    machine: "BspMachine",
    procs: np.ndarray,
    supersteps: np.ndarray,
    comm_schedule: Iterable[CommStep] | None,
    max_violations: int = 20,
) -> list[str]:
    """Return human-readable descriptions of validity violations (possibly empty).

    At most ``max_violations`` messages are collected so that badly broken
    schedules do not produce unbounded output.

    ``comm_schedule=None`` checks ``(π, τ)`` under its lazy communication
    schedule without building it: the schedule is valid exactly when every
    processor is in range, every superstep is ``>= 0``, and every edge
    ``(u, v)`` has ``τ(u) <= τ(v)`` on one processor and ``τ(u) < τ(v)``
    across two.  Only a schedule that fails this check is handed, with its
    lazy ``Γ``, to the passes below that word the messages; one without a
    lazy ``Γ`` reports why no valid communication phase exists.
    """
    procs = np.asarray(procs)
    supersteps = np.asarray(supersteps)
    n = dag.num_nodes
    if procs.shape != (n,) or supersteps.shape != (n,):
        return [
            f"assignment arrays must have shape ({n},); got procs {procs.shape}, "
            f"supersteps {supersteps.shape}"
        ]
    num_procs = machine.num_procs
    procs_i = procs.astype(np.int64, copy=False)
    steps_i = supersteps.astype(np.int64, copy=False)
    src, dst = dag.edge_arrays()
    if comm_schedule is None:
        if _lazy_schedule_valid(num_procs, procs_i, steps_i, src, dst):
            return []
        try:
            columns = lazy_transfers(dag, procs_i, steps_i)
        except ScheduleError as exc:
            return [str(exc)]
        steps = list(map(CommStep, *(column.tolist() for column in columns)))
    else:
        steps = list(comm_schedule)

    # out-of-range ids key the tables by slots after n (comm-step nodes) and
    # by rank (processors); see the module notes.  Messages quote raw ids.
    bad_proc = (procs_i < 0) | (procs_i >= num_procs)
    s_src = s_tgt = _NO_STEPS
    table_nodes = n
    if steps:
        s_node, s_src, s_tgt, s_sup = comm_columns(steps)
        bad_step_proc = (s_src < 0) | (s_src >= num_procs) | (s_tgt < 0) | (s_tgt >= num_procs)
        bad_node = (s_node < 0) | (s_node >= n)
        if bad_node.any():
            unknown, slots = np.unique(s_node[bad_node], return_inverse=True)
            s_node = s_node.copy()
            s_node[bad_node] = n + slots
            table_nodes += unknown.size
    if bad_proc.any() or (steps and bad_step_proc.any()):
        ids, ranks = np.unique(np.concatenate((procs_i, s_src, s_tgt)), return_inverse=True)
        procs_i, s_src, s_tgt = np.split(ranks, [n, n + len(steps)])
        num_procs = ids.size

    violations: list[str] = []

    def add(message: str) -> bool:
        violations.append(message)
        return len(violations) >= max_violations

    # assignment range checks
    neg_step = steps_i < 0
    flagged_nodes = bad_proc | neg_step
    if flagged_nodes.any():
        for v in np.flatnonzero(flagged_nodes).tolist():
            if bad_proc[v] and add(
                f"node {v} assigned to invalid processor {int(procs[v])}"
            ):
                return violations
            if neg_step[v] and add(
                f"node {v} assigned to negative superstep {int(supersteps[v])}"
            ):
                return violations

    # availability table: avail[key(v, p)] = first superstep in which the
    # value of v is present on processor p (sentinel = never).  Dense keys
    # up to the cell ceiling; above it, only the (node, processor) pairs
    # any check can touch are materialised and addressed via searchsorted.
    compute_key = np.arange(n, dtype=np.int64) * num_procs + procs_i
    if table_nodes * num_procs <= _MAX_DENSE_CELLS:
        table_size = table_nodes * num_procs

        def key_index(keys: np.ndarray) -> np.ndarray:
            return keys
    else:
        candidates = [compute_key]
        if steps:
            candidates.append(s_node * num_procs + s_src)
            candidates.append(s_node * num_procs + s_tgt)
        if src.size:
            candidates.append(src * np.int64(num_procs) + procs_i[dst])
        unique_keys = np.unique(np.concatenate(candidates))
        table_size = unique_keys.size

        def key_index(keys: np.ndarray) -> np.ndarray:
            return np.searchsorted(unique_keys, keys)

    avail = np.full(table_size, _INF, dtype=np.int64)
    avail[key_index(compute_key)] = steps_i

    if steps:
        # communication schedule sanity
        neg_sup = s_sup < 0
        self_send = s_src == s_tgt
        redundant = _redundant_mask(
            s_node, s_tgt, s_sup, avail[key_index(s_node * num_procs + s_tgt)]
        )
        flagged = bad_step_proc | neg_sup | self_send | redundant
        if flagged.any():
            for i in np.flatnonzero(flagged).tolist():
                step = steps[i]
                if bad_step_proc[i] and add(
                    f"comm step {step} references an invalid processor"
                ):
                    return violations
                if neg_sup[i] and add(f"comm step {step} has a negative superstep"):
                    return violations
                if self_send[i] and add(
                    f"comm step {step} sends a value to its own processor"
                ):
                    return violations
                if redundant[i] and add(
                    f"comm step {step} re-delivers the value of node {step.node} to "
                    f"processor {step.target}, which already has it"
                ):
                    return violations

        # Resolve availability with forwarding: relax all steps per round
        # until fixpoint (rounds are bounded by the longest forwarding chain).
        src_key = key_index(s_node * num_procs + s_src)
        tgt_key = key_index(s_node * num_procs + s_tgt)
        arrival = s_sup + 1
        while True:
            can_send = avail[src_key] <= s_sup
            before = avail[tgt_key[can_send]]
            np.minimum.at(avail, tgt_key[can_send], arrival[can_send])
            if not (avail[tgt_key[can_send]] < before).any():
                break

        # every comm step must itself be justified
        unjustified = avail[src_key] > s_sup
        if unjustified.any():
            for i in np.flatnonzero(unjustified).tolist():
                step = steps[i]
                if add(
                    f"comm step {step}: value of node {step.node} is not available on "
                    f"processor {step.source} by superstep {step.superstep}"
                ):
                    return violations

    # precedence constraints
    if src.size:
        pu = procs_i[src]
        pv = procs_i[dst]
        su = steps_i[src]
        sv = steps_i[dst]
        same = pu == pv
        bad_same = same & (su > sv)
        bad_cross = ~same & (avail[key_index(src * np.int64(num_procs) + pv)] > sv)
        flagged_edges = bad_same | bad_cross
        if flagged_edges.any():
            for i in np.flatnonzero(flagged_edges).tolist():
                u, v = int(src[i]), int(dst[i])
                if bad_same[i] and add(
                    f"edge ({u},{v}): predecessor on same processor {int(procs[u])} but "
                    f"scheduled later (superstep {int(su[i])} > {int(sv[i])})"
                ):
                    return violations
                if bad_cross[i] and add(
                    f"edge ({u},{v}): value of {u} never reaches processor {int(procs[v])} "
                    f"before superstep {int(sv[i])}"
                ):
                    return violations
    return violations


def validate_schedule(
    dag: "ComputationalDAG",
    machine: "BspMachine",
    procs: np.ndarray,
    supersteps: np.ndarray,
    comm_schedule: Iterable[CommStep] | None,
) -> None:
    """Raise :class:`ScheduleError` if the schedule is invalid.

    ``comm_schedule=None`` checks the lazy communication schedule, as in
    :func:`schedule_violations`.
    """
    violations = schedule_violations(dag, machine, procs, supersteps, comm_schedule)
    if violations:
        raise ScheduleError(
            "invalid BSP schedule:\n  " + "\n  ".join(violations)
        )
