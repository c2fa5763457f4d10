"""Hill-climbing local search over node assignments (``HC``, paper §4.3, Appendix A.3).

Starting from a valid BSP schedule (with the lazy communication schedule),
``HC`` repeatedly applies single-node moves — reassigning one node to any
processor in its current superstep, the previous superstep or the next
superstep — as long as a move strictly decreases the total cost.  The paper
uses the greedy "first improving move" variant, which is what this module
implements.

Cost changes are maintained incrementally through :class:`LazyCostTracker`,
which keeps per-superstep/per-processor work, send and receive volumes under
the lazy communication schedule, plus every node's "first superstep that
needs its value on each processor" table.  Candidate evaluation is a
**read-only block evaluation**: :meth:`LazyCostTracker.candidate_deltas`
computes the exact cost delta of all ``3 x P`` candidate ``(superstep,
processor)`` moves of a whole run of nodes against the current state at
once —

* validity masks from the flattened predecessor/successor CSR slices,
* work deltas from the affected row maxima,
* send/receive deltas from the first-need tables of the nodes and of their
  predecessors, decomposed over the block's touched traffic rows: a row a
  move only raises takes the larger of its maximum and the raised columns,
  only a row a predecessor's transfer leaves takes a full maximum, and the
  rows' changes are summed per node.

The pass loop :func:`repro.core.kernels.hc_pass` applies the block's
first improving move through :meth:`LazyCostTracker.apply_move` and resumes
after it, so every node is scored against exactly the state a node-by-node
walk would show it.  The seed implementation instead paid two full
``apply_move`` calls (probe + inverse rollback) per *rejected* candidate,
each re-deriving the transfers of ``v`` and all its predecessors in Python.
That seed walker is retained verbatim as ``HillClimbingImproverReference``
in ``tests/oracles/refiners.py``, and the block path is pinned to it **move
for move** (identical accepted-move sequences and final ``(π, τ)``) by the
differential tests; on
integer/dyadic-weight instances — every generator in this repository — the
two paths are bit-identical, not merely equal in cost.

A pipeline climbs each of its initial schedules, and the multilevel
scheduler refines each of its coarsening ratios.  Those climbs are
independent, so :meth:`HillClimbingImprover.improve_many` and
:meth:`HillClimbingImprover.refine_assignment` put all of them into one
tracker as disjoint copies — of one DAG, or of different DAGs on one
machine — and each pass walks the copies in lockstep: one
``candidate_deltas`` call scores the next block of every copy still
walking, which saves the fixed per-call cost of the calls the separate
climbs would make.  The copies share no edge and no superstep, and a
copy's scores and moves read only its own nodes and rows, so each copy's
moves and result are those of its own climb.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from ..core import kernels
from ..core.csr import NO_ENTRY, gather_rows
from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, ScheduleImprover

__all__ = [
    "CLOCK",
    "CONVERGED",
    "PASS_CAP",
    "STEP_CAP",
    "LazyCostTracker",
    "HillClimbingImprover",
]

#: why a climb stopped (:attr:`HillClimbingImprover.last_stop`): a full pass
#: accepted no move, the accepted-move cap or the pass cap was reached, or
#: the wall clock ran out
CONVERGED, STEP_CAP, PASS_CAP, CLOCK = "converged", "step_cap", "pass_cap", "clock"

_EPS = 1e-9
_INT = np.int64
#: candidate steps relative to τ(v), in scan order
_STEP_OFFSETS = np.array((-1, 0, 1), dtype=_INT)
#: traffic rows relative to τ(v) that every candidate of v can touch
_STEP_ROWS = _STEP_OFFSETS - 1
#: cap on the working cells of one scored block, counted over its largest
#: arrays: ``2P`` per touched traffic row (its send and receive columns),
#: ``3P`` per predecessor entry (its volume to each target at each step),
#: ``3P²`` per node (each step's sends by processor and target) and ``2P``
#: per row a predecessor's transfer can leave.  It bounds a block's memory,
#: so :meth:`LazyCostTracker.candidate_deltas` may score fewer nodes than
#: asked for (never fewer than one).
_BLOCK_CELLS = 1 << 16


def _offsets(sizes: list[int]) -> np.ndarray:
    """``[0, s0, s0 + s1, ...]``: where each of the consecutive parts starts, then the end."""
    offsets = np.zeros(len(sizes) + 1, dtype=_INT)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _joined_csr(
    indptrs: list[np.ndarray], indices: list[np.ndarray], node_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of disjoint graphs; graph ``t``'s ``v`` becomes ``node_offsets[t] + v``."""
    edge_offsets = _offsets([part.size for part in indices])
    return (
        np.concatenate(
            [ptr[:-1] + shift for ptr, shift in zip(indptrs, edge_offsets.tolist())]
            + [edge_offsets[-1:]]
        ),
        np.concatenate([part + shift for part, shift in zip(indices, node_offsets.tolist())]),
    )


def _per_copy(dag, procs, supersteps) -> tuple[tuple[ComputationalDAG, ...], list, list]:
    """``(dags, procs, supersteps)``, one entry per copy, from the arguments of a tracker."""
    if isinstance(dag, ComputationalDAG):
        procs = np.atleast_2d(np.asarray(procs, dtype=_INT))
        supersteps = np.atleast_2d(np.asarray(supersteps, dtype=_INT))
        return (dag,) * len(supersteps), list(procs), list(supersteps)
    return (
        tuple(dag),
        [np.asarray(p, dtype=_INT) for p in procs],
        [np.asarray(s, dtype=_INT) for s in supersteps],
    )


def _same_rows(a: LazyCostTracker, copy_a: int, b: LazyCostTracker, copy_b: int) -> bool:
    """Whether ``a``'s copy ``copy_a`` has the work and traffic rows of ``b``'s ``copy_b``."""
    rows_a = slice(a.step_offsets[copy_a], a.step_offsets[copy_a + 1])
    rows_b = slice(b.step_offsets[copy_b], b.step_offsets[copy_b + 1])
    return np.array_equal(a.work[rows_a], b.work[rows_b]) and np.array_equal(
        a.traffic[:, rows_a], b.traffic[:, rows_b]
    )


class LazyCostTracker:
    """Incrementally maintained cost of lazy-communication BSP schedules.

    The tracker owns mutable copies of the assignment arrays.  The number of
    supersteps is fixed at construction time; node moves are restricted to
    the existing supersteps (the surrounding pipeline compacts empty
    supersteps afterwards).

    One tracker can hold ``T`` schedules on one machine as disjoint
    *copies*, of one DAG or of different ones.  For one DAG, pass ``procs``
    and ``supersteps`` as ``(T, n)`` arrays (one row per schedule); for
    different DAGs, pass ``dag`` as a sequence of ``T`` DAGs and ``procs``
    and ``supersteps`` as sequences of ``T`` arrays, one per DAG.
    ``num_supersteps`` is one count, or one per copy.  Copy ``t``'s node
    ``v`` is tracker node :attr:`node_offsets` ``[t] + v``, and its
    supersteps are offset by :attr:`step_offsets` ``[t]``, the supersteps
    of the copies before it, so every work and traffic row belongs to
    exactly one copy and a node may only move within its copy's supersteps.
    The copies' CSR and weight arrays are concatenated with node and edge
    offsets (one DAG's arrays ``T`` times when the copies share it), so no
    edge joins two copies, and each copy's rows, first-need table and moves
    are those of a tracker holding that schedule alone.  A 1-D assignment
    of one DAG is the one-copy case.
    """

    def __init__(
        self,
        dag: ComputationalDAG | Sequence[ComputationalDAG],
        machine: BspMachine,
        procs: np.ndarray | Sequence[np.ndarray],
        supersteps: np.ndarray | Sequence[np.ndarray],
        num_supersteps: int | Sequence[int] | np.ndarray | None = None,
    ) -> None:
        dags, procs, supersteps = _per_copy(dag, procs, supersteps)
        copies = len(dags)
        #: each copy's DAG
        self.dags = dags
        #: the DAG every copy shares (``None`` when the copies' DAGs differ)
        self.dag = dags[0] if copies and all(d is dags[0] for d in dags) else None
        self.machine = machine
        counts = (
            [int(s.max(initial=-1)) + 1 for s in supersteps]
            if num_supersteps is None
            else np.zeros(copies, dtype=_INT) + num_supersteps
        )
        sizes = [d.num_nodes for d in dags]
        #: number of schedules held
        self.num_copies = copies
        #: copy ``t`` owns the nodes ``[node_offsets[t], node_offsets[t + 1])``
        self.node_offsets = _offsets(sizes)
        #: copy ``t`` owns the supersteps ``[step_offsets[t], step_offsets[t + 1])``
        self.step_offsets = _offsets(counts)
        self.procs = np.concatenate(procs)
        self.supersteps = np.concatenate(
            [s + offset for s, offset in zip(supersteps, self.step_offsets[:-1].tolist())]
        )
        self.num_supersteps = int(self.step_offsets[-1])
        # each node's open superstep range, the one of its copy
        self._step_lo = self.step_offsets[:-1].repeat(sizes)
        self._step_hi = self.step_offsets[1:].repeat(sizes)
        self._work_w = np.concatenate([d.work_weights for d in dags])
        self._comm_w = np.concatenate([d.comm_weights for d in dags])
        self._pred_indptr, self._pred_indices = _joined_csr(
            [d.pred_indptr for d in dags], [d.pred_indices for d in dags], self.node_offsets
        )
        self._succ_indptr, self._succ_indices = _joined_csr(
            [d.succ_indptr for d in dags], [d.succ_indices for d in dags], self.node_offsets
        )
        P = machine.num_procs
        S = max(self.num_supersteps, 1)
        self.work = np.zeros((S, P), dtype=np.float64)
        #: send and receive volumes stacked column-wise, one row per
        #: (side, processor): ``send = traffic[:P].T``, ``recv =
        #: traffic[P:].T``, so one gather reads both sides of a superstep
        self.traffic = np.zeros((2 * P, S), dtype=np.float64)
        self.send = self.traffic[:P].T
        self.recv = self.traffic[P:].T
        self._work_max = np.zeros(S, dtype=np.float64)
        self._comm_max = np.zeros(S, dtype=np.float64)
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        """Fill work, the first-need table and the traffic rows.

        One grouped pass over the edges fills the incremental first-need
        table: ``need_min[u, q]`` is the earliest superstep any successor
        of ``u`` occupies on processor ``q`` (``NO_ENTRY`` when none does)
        and ``need_cnt[u, q]`` counts the successors achieving that
        minimum.  :meth:`apply_move` maintains both in O(changed), which is
        what lets :meth:`candidate_deltas` skip the per-visit ragged gather
        over the predecessors' successor rows that earlier revisions
        rebuilt from scratch for every node.  The traffic rows are then the
        lazy transfers of every node, read off the finished table by
        :meth:`_transfer_cells` — the derivation :meth:`apply_move` uses —
        and scattered in (node, target) order.
        """
        N = self.procs.size
        np.add.at(self.work, (self.supersteps, self.procs), self._work_w)
        self.need_min = np.full((N, self.machine.num_procs), NO_ENTRY, dtype=np.int64)
        self.need_cnt = np.zeros_like(self.need_min)
        dst = self._succ_indices
        if dst.size:
            src = np.arange(N, dtype=_INT).repeat(self._succ_indptr[1:] - self._succ_indptr[:-1])
            qd = self.procs[dst]
            sd = self.supersteps[dst]
            np.minimum.at(self.need_min, (src, qd), sd)
            achieves = sd == self.need_min[src, qd]
            np.add.at(self.need_cnt, (src[achieves], qd[achieves]), 1)
            rows, phases, volumes = self._transfer_cells(np.arange(N, dtype=_INT))
            np.add.at(self.traffic, (rows, phases), volumes)
        np.max(self.work, axis=1, out=self._work_max)
        self.traffic.max(axis=0, out=self._comm_max)

    # ------------------------------------------------------------------ #
    # cost
    # ------------------------------------------------------------------ #
    def cost(self, copy: int | None = None) -> float:
        """Current total cost (work + g·comm + latency) of every copy, or of one."""
        if copy is None:
            rows, count = slice(None), self.num_supersteps
        else:
            lo, hi = int(self.step_offsets[copy]), int(self.step_offsets[copy + 1])
            rows, count = slice(lo, hi), hi - lo
        return float(
            self._work_max[rows].sum()
            + self.machine.g * self._comm_max[rows].sum()
            + self.machine.latency * count
        )

    # ------------------------------------------------------------------ #
    # moves
    # ------------------------------------------------------------------ #
    def is_valid_move(self, v: int, new_proc: int, new_step: int) -> bool:
        """Whether moving ``v`` to ``(new_proc, new_step)`` keeps the schedule valid."""
        if not self._step_lo[v] <= new_step < self._step_hi[v]:
            return False
        if not 0 <= new_proc < self.machine.num_procs:
            return False
        preds = self._pred_indices[self._pred_indptr[v] : self._pred_indptr[v + 1]]
        if preds.size:
            su = self.supersteps[preds]
            same = self.procs[preds] == new_proc
            if np.any(same & (su > new_step)) or np.any(~same & (su >= new_step)):
                return False
        succs = self._succ_indices[self._succ_indptr[v] : self._succ_indptr[v + 1]]
        if succs.size:
            sw = self.supersteps[succs]
            same = self.procs[succs] == new_proc
            if np.any(same & (sw < new_step)) or np.any(~same & (sw <= new_step)):
                return False
        return True

    def candidate_deltas(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact cost deltas of the ``3 x P`` candidate moves of a block of nodes.

        Scores the nodes of the 1-D array ``nodes`` against the current
        state, read-only.  Returns ``(deltas, valid)``, both of shape
        ``(K, 3, P)``, for the first ``K`` nodes: ``deltas[k, i, q]`` is the
        change of the tracked cost (work + g·comm; latency is constant) if
        ``nodes[k]`` alone moves to ``(superstep τ - 1 + i, processor q)``,
        and ``valid[k, i, q]`` says whether that move keeps the schedule
        valid (staying put never does).  Invalid entries are meaningless.
        ``K`` is the longest prefix, and at least one node, whose working
        arrays stay within ``_BLOCK_CELLS`` cells.  For a valid candidate the
        value equals what :meth:`apply_move` would return (bit-identically
        so under exact — integer/dyadic — weight arithmetic).

        Every per-node table is a segment of one flat array: predecessor
        entries carry their node's block index ``k``, and traffic row ``t``
        of node ``k`` is keyed ``k * S + t``, so one sort of the keys serves
        the whole block and ``np.add.reduceat`` sums each node's rows (a node
        owns at least its rows ``τ - 2 .. τ``, so no segment is empty).

        The communication delta is decomposed per traffic row.  With ``v``
        removed, row ``r`` has maximum ``B[r]``; a candidate ``(s, q)``
        then changes three kinds of row: (a) ``v``'s transfer rows, where
        send column ``q`` and the targets' receive columns rise; (b) row
        ``s - 1``, where every predecessor whose ``v``-free need on ``q``
        is later than ``s`` (or absent) now sends to ``q``; (c) such a
        predecessor's later row, which its transfer to ``q`` leaves.  (a)
        and (b) only raise columns, so their new maximum is that of
        ``B[r]`` and the raised columns; only the few (c) rows take a full
        ``2P``-column maximum, once per (row, target) for all three steps.
        """
        numa = self.machine.numa
        P = self.machine.num_procs
        stride = max(self.num_supersteps, 1)
        nodes = np.asarray(nodes, dtype=_INT)
        K = nodes.size
        if K == 0:
            return np.zeros((0, 3, P)), np.zeros((0, 3, P), dtype=bool)
        kr = np.arange(K, dtype=_INT)
        p0 = self.procs[nodes]
        s0 = self.supersteps[nodes]

        # first superstep needing each predecessor's value on each processor,
        # v excluded.  v only ever contributes the entry (p0, s0), so the
        # maintained rows are already v-free everywhere except possibly
        # column p0 — and there only when v is the *sole* achiever of the
        # minimum (need == s0 with count 1), in which case that entry is
        # rescanned from the predecessor's successor row without v.
        preds, pred_off = gather_rows(self._pred_indptr, self._pred_indices, nodes)
        pk = kr.repeat(pred_off[1:] - pred_off[:-1])  # block index of each entry
        table = self.need_min[preds]
        p0k = p0[pk]
        suspects = (
            (self.need_min[preds, p0k] == s0[pk]) & (self.need_cnt[preds, p0k] == 1)
        ).nonzero()[0]
        if suspects.size:
            flat, offsets = gather_rows(self._succ_indptr, self._succ_indices, preds[suspects])
            rows_idx = np.arange(suspects.size, dtype=_INT).repeat(offsets[1:] - offsets[:-1])
            owner = pk[suspects][rows_idx]
            keep = (flat != nodes[owner]) & (self.procs[flat] == p0[owner])
            col = np.full(suspects.size, NO_ENTRY, dtype=_INT)
            np.minimum.at(col, rows_idx[keep], self.supersteps[flat[keep]])
            table[suspects, p0k[suspects]] = col

        # every traffic row a candidate can touch: v's transfer phases, the
        # predecessors' v-free phases and the phases just below the three
        # candidate steps.  Phases of *invalid* candidates may fall outside
        # [0, S); they are clipped — the clipped updates only pollute rows
        # of candidates the validity mask discards.  Each piece's position
        # among the sorted distinct keys places it on its row, so no row is
        # searched for later.
        need_v = self.need_min[nodes]
        tk, tq = (need_v != NO_ENTRY).nonzero()  # v's transfer targets
        fe, fq = (table != NO_ENTRY).nonzero()  # predecessors' other needs
        phases = np.concatenate(
            (need_v[tk, tq] - 1, table[fe, fq] - 1, (s0[:, None] + _STEP_ROWS).ravel())
        )
        np.maximum(phases, 0, out=phases)
        np.minimum(phases, stride - 1, out=phases)
        phases += np.concatenate((tk, pk[fe], kr.repeat(3))) * stride
        keys = phases.copy()
        keys.sort()
        distinct = np.empty(keys.size, dtype=bool)
        distinct[0] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        keys = keys[distinct]
        at = keys.searchsorted(phases)
        at_t, at_f, at_s = at[: tk.size], at[tk.size : -3 * K], at[-3 * K :].reshape(K, 3)
        ends = keys.searchsorted((kr + 1) * stride)  # end of each node's rows
        # a prefix's working cells: those of its largest arrays (see
        # ``_BLOCK_CELLS``); a predecessor's need leaves at most one row
        cells = P * (
            2 * ends + 3 * (pred_off[1:] + P * (kr + 1)) + 2 * fe.searchsorted(pred_off[1:])
        )
        fit = max(1, int(cells.searchsorted(_BLOCK_CELLS, side="right")))
        if fit < K:
            K = fit
            E = int(pred_off[K])
            kr, nodes, p0, s0, at_s = kr[:K], nodes[:K], p0[:K], s0[:K], at_s[:K]
            preds, pk, p0k, table = preds[:E], pk[:E], p0k[:E], table[:E]
            nt, nf = tk.searchsorted(K), fe.searchsorted(E)
            tk, tq, at_t, fe, fq, at_f = tk[:nt], tq[:nt], at_t[:nt], fe[:nf], fq[:nf], at_f[:nf]
            keys = keys[: ends[K - 1]]
        R = keys.size
        rows = keys % stride
        at_table = np.empty(table.shape, dtype=_INT)  # row of each finite need
        at_table[fe, fq] = at_f
        steps = s0[:, None] + _STEP_OFFSETS  # (K, 3)

        valid = self._block_validity(nodes, preds, pk, p0, steps)

        # --- work component ------------------------------------------- #
        # weights are non-negative, so adding w at q never lowers the row
        # and max(m0, row + w) is the row maximum after the move.  Steps
        # τ - 1 and τ + 1 are scored together, clipped like the phases.
        w = self._work_w[nodes][:, None]
        wm = self._work_max
        removed0 = self.work[s0]
        removed0[kr, p0] -= w[:, 0]
        m0 = np.maximum.reduce(removed0, axis=1)
        deltas = np.empty((K, 3, P))
        deltas[:, 1] = np.maximum(m0[:, None], removed0 + w) - wm[s0][:, None]
        sides = np.maximum(steps[:, ::2], 0)
        np.minimum(sides, stride - 1, out=sides)
        wms = wm[sides][:, :, None]
        deltas[:, ::2] = (np.maximum(wms, self.work[sides] + w[:, :, None]) - wms) + (
            m0 - wm[s0]
        )[:, None, None]

        # --- communication component ----------------------------------- #
        # ``base`` holds the touched traffic rows with v removed, one line
        # of send then receive columns per row: v's old transfers
        # disappear, and the predecessors' transfers to p0 (they feed v
        # there) move to their v-free phase.  Pairs with a zero NUMA
        # multiplier (a processor "sending" to itself) add zero volume, so
        # they are scattered along instead of masked out.
        c_v = self._comm_w[nodes]
        pp = self.procs[preds]
        pvol = self._comm_w[preds][:, None] * numa[pp]  # (E, P)
        procs = np.arange(P, dtype=_INT)
        fi = (pp != p0k).nonzero()[0]
        fk = pk[fi]
        p0f = p0k[fi]
        t_p0 = table[fi, p0f]
        at_p0 = at_table[fi, p0f]
        finite = t_p0 != NO_ENTRY
        vol_p0 = pvol[fi, p0f]
        at_c = 2 * P * np.concatenate(
            (at_t, np.where(t_p0 < s0[fk], at_p0, at_s[fk, 1]), at_p0[finite])
        )
        c_t = c_v[tk]
        vols = np.concatenate((-c_t * numa[p0[tk], tq], -vol_p0, vol_p0[finite]))
        send_col = np.concatenate((p0[tk], pp[fi], pp[fi[finite]]))
        recv_col = np.concatenate((tq, p0f, p0f[finite])) + P
        base = self.traffic.T[rows] + np.bincount(
            np.concatenate((at_c + send_col, at_c + recv_col)),
            np.concatenate((vols, vols)),
            2 * P * R,
        ).reshape(R, 2 * P)

        # (a) v's transfers, now sent from q: on each of their rows send
        # column q rises by their summed volume, and each target t's
        # receive column by c(v)·λ(q, t).  Only columns rise, so
        # ``lift[r, q]``, row r's maximum with v re-added on q (and the
        # predecessors still at their v-free phases), is the larger of
        # the row's maximum and its raised columns.  It does not depend on
        # the step, and on rows without a transfer of v it is that maximum.
        raise_t = c_t[:, None] * numa[:, tq].T  # (transfer, q)
        send_a = np.bincount(
            (at_t[:, None] * P + procs).ravel(), raise_t.ravel(), R * P
        ).reshape(R, P)
        lift = np.maximum(np.maximum.reduce(base, axis=1)[:, None], base[:, :P] + send_a)
        np.maximum.at(lift, at_t, base[at_t, P + tq][:, None] + raise_t)
        starts = np.concatenate(([0], ends[: K - 1]))
        comm = np.add.reduceat(lift - self._comm_max[rows][:, None], starts)[:, None]

        # (b) row s - 1: every predecessor whose v-free need on q is later
        # than s, or absent, now sends to q there.  That raises its
        # processor's send column (summed per processor) and receive
        # column q (summed over all of them), never a column (a) raises
        # (λ(q, q) = 0).  The sending processor is the outermost axis of
        # ``sends``, so both reductions over it are elementwise.
        moved = np.where(table[:, None] > steps[pk][:, :, None], pvol[:, None], 0.0)
        sends = np.bincount(
            (((pp * K + pk) * (3 * P))[:, None] + np.arange(3 * P)).ravel(),
            moved.ravel(),
            P * K * 3 * P,
        ).reshape(P, K, 3, P)  # (sending processor, node, step, q)
        row_b = base[at_s]  # (K, 3, 2P)
        lift_b = lift[at_s]
        raised = np.maximum(
            np.maximum(
                lift_b,
                np.maximum.reduce(row_b[..., :P].transpose(2, 0, 1)[..., None] + sends, axis=0),
            ),
            row_b[..., P:] + np.add.reduce(sends, axis=0),
        )
        comm = comm + (raised - lift_b)

        # (c) the row t - 1 of each predecessor moved in (b) that has a
        # v-free need t on q: its transfer leaves, lowering its processor's
        # send column and receive column q, so that row alone needs a full
        # maximum.  Every predecessor on one (row, q) pair shares t, so the
        # pair's row is built once, with v's (a) raises.  It counts for the
        # steps s < t, whose (b) row s - 1 comes before it among the node's
        # rows (sorted by phase), so each step's share is a difference of
        # running sums over the block's rows.
        if fe.size:
            pair = at_f * P + fq
            present = np.zeros(R * P, dtype=bool)
            present[pair] = True
            pairs = present.nonzero()[0]
            gr, gq = np.divmod(pairs, P)
            sent = np.zeros((R, P))  # c(v) at the (row, target) of its transfers
            sent[at_t, tq] = c_t
            full = base[gr]
            full[:, P:] += sent[gr] * numa[gq]
            at_g = 2 * P * np.arange(pairs.size)
            at_e = 2 * P * pairs.searchsorted(pair)
            vol = -pvol[fe, fq]
            full += np.bincount(
                np.concatenate((at_g + gq, at_e + pp[fe], at_e + P + fq)),
                np.concatenate((send_a.ravel()[pairs], vol, vol)),
                pairs.size * 2 * P,
            ).reshape(-1, 2 * P)
            change = np.zeros((R + 1) * P)  # a zero row, then one per row
            change[P + pairs] = np.maximum.reduce(full, axis=1) - lift.ravel()[pairs]
            before = np.add.accumulate(change.reshape(R + 1, P), axis=0)  # rows < r
            comm += before[ends[:K], None] - before[at_s + 1]
        deltas += self.machine.g * comm
        return deltas, valid

    def _block_validity(
        self,
        nodes: np.ndarray,
        preds: np.ndarray,
        pk: np.ndarray,
        p0: np.ndarray,
        steps: np.ndarray,
    ) -> np.ndarray:
        """Boolean ``(K, 3, P)`` mask of the valid single-node moves of a block.

        Semantically identical to :meth:`is_valid_move` for every candidate
        (staying put excluded), evaluated from the flattened neighbour
        slices (``preds`` with their block indices ``pk``) and the ``(K,
        3)`` candidate ``steps``: a step outside the node's copy is closed,
        a predecessor scheduled *after* a candidate step (a successor
        *before* it) kills the whole step, neighbours *tied* at the step
        force the single processor they occupy — and kill the step when
        they disagree.
        """
        P = self.machine.num_procs
        K = nodes.size
        succs, succ_off = gather_rows(self._succ_indptr, self._succ_indices, nodes)
        sk = np.arange(K, dtype=_INT).repeat(succ_off[1:] - succ_off[:-1])
        # rel > 0: the neighbour forbids the step; rel == 0: it is tied there
        rel = np.concatenate(
            (
                self.supersteps[preds][:, None] - steps[pk],
                steps[sk] - self.supersteps[succs][:, None],
            )
        )
        cell = np.concatenate((pk, sk))[:, None] * 3 + np.arange(3, dtype=_INT)
        open_steps = (
            (steps >= self._step_lo[nodes][:, None]) & (steps < self._step_hi[nodes][:, None])
        ).ravel()
        open_steps[cell[rel > 0]] = False
        tied, tied_step = (rel == 0).nonzero()
        tied_cells = cell[tied, tied_step]
        tied_procs = np.concatenate((self.procs[preds], self.procs[succs]))[tied]
        lo = np.full(3 * K, P, dtype=_INT)
        hi = np.full(3 * K, -1, dtype=_INT)
        np.minimum.at(lo, tied_cells, tied_procs)
        np.maximum.at(hi, tied_cells, tied_procs)
        open_steps &= lo >= hi  # tied neighbours on two processors
        forced = hi.reshape(K, 3, 1)
        valid = open_steps.reshape(K, 3, 1) & (
            (forced < 0) | (forced == np.arange(P, dtype=_INT))
        )
        valid[np.arange(K), 1, p0] = False
        return valid

    def apply_move(self, v: int, new_proc: int, new_step: int) -> float:
        """Apply the move and return the resulting change in total cost.

        Only the lazy transfers of ``v`` and of its predecessors can change.
        They are read from the first-need rows before and after
        :meth:`_update_need`, the old ones subtracted and the new ones added
        in (node, target) order, so every traffic cell sees the same float
        updates as a node-by-node walk over the transfers.  Then the work
        and traffic maxima of the touched supersteps are refreshed.
        """
        old_proc = int(self.procs[v])
        old_step = int(self.supersteps[v])
        if (old_proc, old_step) == (new_proc, new_step):
            return 0.0
        g = self.machine.g
        before = self._work_max.sum() + g * self._comm_max.sum()
        preds = self._pred_indices[self._pred_indptr[v] : self._pred_indptr[v + 1]]
        affected = np.concatenate(((v,), preds))
        old_rows, old_phases, old_volumes = self._transfer_cells(affected)
        work_v = self._work_w[v]
        self.work[old_step, old_proc] -= work_v
        self.work[new_step, new_proc] += work_v
        self.procs[v] = new_proc
        self.supersteps[v] = new_step
        self._update_need(preds, old_proc, old_step, new_proc, new_step)
        new_rows, new_phases, new_volumes = self._transfer_cells(affected)
        np.subtract.at(self.traffic, (old_rows, old_phases), old_volumes)
        np.add.at(self.traffic, (new_rows, new_phases), new_volumes)
        touched = np.concatenate(((old_step, new_step), old_phases, new_phases))
        self._work_max[touched] = np.maximum.reduce(self.work[touched], axis=1)
        self._comm_max[touched] = np.maximum.reduce(self.traffic[:, touched], axis=0)
        return float(self._work_max.sum() + g * self._comm_max.sum() - before)

    def _transfer_cells(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Traffic cells ``(rows, phases, volumes)`` of the lazy transfers of ``nodes``.

        Node ``u`` sends ``c(u)·λ(π(u), q)`` to every processor ``q ≠
        π(u)`` that needs it, in phase ``need_min[u, q] - 1``.  Every
        transfer is listed on its send row ``π(u)``, then all again on
        their receive rows ``P + q``, each time in (node, target) order.
        """
        need = self.need_min[nodes]
        sources = self.procs[nodes]
        sends = need != NO_ENTRY
        sends[np.arange(nodes.size), sources] = False
        at, targets = sends.nonzero()
        phases = need[at, targets] - 1
        sources = sources[at]
        volumes = self._comm_w[nodes[at]] * self.machine.numa[sources, targets]
        return (
            np.concatenate((sources, targets + self.machine.num_procs)),
            np.concatenate((phases, phases)),
            np.concatenate((volumes, volumes)),
        )

    def _update_need(
        self, preds: np.ndarray, old_proc: int, old_step: int, new_proc: int, new_step: int
    ) -> None:
        """Maintain the first-need (min, count) rows of ``v``'s predecessors ``preds``.

        Must run after ``procs[v]``/``supersteps[v]`` have been reassigned.
        ``v``'s contribution moves from ``(old_proc, old_step)`` to
        ``(new_proc, new_step)``: the addition is applied first (against the
        pre-addition minima), then the removal — a predecessor whose achiever
        count drops to zero gets its column rescanned from its successor row.
        That happens whenever ``v`` was the sole achiever, which is common:
        ``v`` is often a predecessor's only successor at its old (processor,
        superstep).  ``v``'s own row is untouched — its successors did not
        move.
        """
        if preds.size == 0:
            return
        nm = self.need_min[preds, new_proc]
        lower = preds[new_step < nm]
        self.need_min[lower, new_proc] = new_step
        self.need_cnt[lower, new_proc] = 1
        equal = preds[new_step == nm]
        self.need_cnt[equal, new_proc] += 1
        dec = preds[self.need_min[preds, old_proc] == old_step]
        self.need_cnt[dec, old_proc] -= 1
        dead = dec[self.need_cnt[dec, old_proc] == 0]
        if dead.size:
            flat, offsets = gather_rows(self._succ_indptr, self._succ_indices, dead)
            rows_idx = np.arange(dead.size, dtype=_INT).repeat(offsets[1:] - offsets[:-1])
            keep = self.procs[flat] == old_proc
            col = np.full(dead.size, NO_ENTRY, dtype=_INT)
            cnt = np.zeros(dead.size, dtype=_INT)
            if keep.any():
                rows_kept = rows_idx[keep]
                steps_kept = self.supersteps[flat[keep]]
                np.minimum.at(col, rows_kept, steps_kept)
                achieved = steps_kept == col[rows_kept]
                np.add.at(cnt, rows_kept[achieved], 1)
            self.need_min[dead, old_proc] = col
            self.need_cnt[dead, old_proc] = cnt

    def assignment(self, copy: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the current ``(π, τ)`` arrays, or of one copy's in its own numbering."""
        if copy is None:
            return self.procs.copy(), self.supersteps.copy()
        nodes = slice(self.node_offsets[copy], self.node_offsets[copy + 1])
        return self.procs[nodes].copy(), self.supersteps[nodes] - self.step_offsets[copy]

    def compacted_assignment(self, copy: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
        """``(π, τ', num_used)`` of one copy with empty supersteps renumbered away.

        A superstep survives when it holds computation (appears in ``τ``)
        or is the phase of a lazy transfer: ``need_min[u, q] - 1`` for every
        processor ``q != π(u)`` that needs ``u``.  This is exactly the set
        ``BspSchedule.compacted()`` keeps, read from the first-need table
        instead of a materialised ``Γ``.  The traffic rows cannot stand in
        for it: a zero-volume transfer leaves no trace there, and removing a
        transfer by subtraction can leave float residue in a row.
        """
        procs, supersteps = self.assignment(copy)
        need = self.need_min[self.node_offsets[copy] : self.node_offsets[copy + 1]]
        needs = need != NO_ENTRY
        needs[np.arange(procs.size), procs] = False
        used = np.union1d(supersteps, need[needs] - 1 - self.step_offsets[copy])
        return procs, np.searchsorted(used, supersteps), used.size


class HillClimbingImprover(ScheduleImprover):
    """Greedy first-improvement hill climbing over single-node moves (``HC``).

    Each pass is the block walk of :func:`repro.core.kernels.hc_pass`: runs
    of nodes have their whole ``3 x P`` candidate neighbourhoods scored
    together, read-only (:meth:`LazyCostTracker.candidate_deltas`), and only
    the accepted moves mutate the tracker.  The accepted-move sequence is
    identical to the retained probe-and-rollback walker
    ``HillClimbingImproverReference`` (``tests/oracles/refiners.py``).  A
    wall-clock budget is checked before every block, and every pass opens
    with a full-size block, so a run may overrun its clock by one full
    block's evaluation.

    :meth:`improve_many` climbs several schedules on one machine at once,
    of one DAG or of different ones: one tracker holds them all as copies,
    and each pass walks every copy still climbing in lockstep, so their
    blocks share ``candidate_deltas`` calls.  Each copy keeps its own step
    cap, stop reason and moves, and ends with the schedule a lone
    :meth:`improve` would return; :meth:`improve` is the one-schedule case.
    :meth:`refine_assignment` runs such a joint burst on raw arrays.

    Parameters
    ----------
    max_passes:
        Upper bound on the number of full passes over all nodes (a pass with
        no improving move terminates the search early).
    max_steps:
        Optional upper bound on the number of *accepted* moves (used by the
        multilevel refinement phase, which runs short bursts of HC).
    record_moves:
        When true, the accepted moves ``(node, new_proc, new_step)`` of the
        last run are kept in :attr:`last_moves` (differential tests use
        this to pin the vectorized and reference paths together).

    Every run records in :attr:`last_stop` why its climb stopped:
    :data:`CONVERGED` (a full pass accepted no move), :data:`STEP_CAP`,
    :data:`PASS_CAP` or :data:`CLOCK`.  A run over several schedules keeps
    one stop reason, one accepted-move count and one move list per schedule
    in :attr:`copy_stops`, :attr:`copy_accepted` and :attr:`copy_moves`;
    :attr:`last_stop` and :attr:`last_moves` are then the first schedule's.
    """

    name = "hill_climbing"

    def __init__(
        self,
        max_passes: int = 50,
        max_steps: int | None = None,
        record_moves: bool = False,
    ) -> None:
        self.max_passes = max_passes
        self.max_steps = max_steps
        self.record_moves = record_moves
        #: accepted moves ``(node, new_proc, new_step)`` of the last run
        self.last_moves: list[tuple[int, int, int]] | None = None
        #: why the last run stopped (``None`` before the first run)
        self.last_stop: str | None = None
        #: accepted moves of each schedule of the last run, in its own numbering
        self.copy_moves: list[list[tuple[int, int, int]]] | None = None
        #: why each schedule's climb in the last run stopped
        self.copy_stops: list[str] = []
        #: how many moves each schedule's climb in the last run accepted
        self.copy_accepted: list[int] = []

    # ------------------------------------------------------------------ #
    def climb(
        self,
        tracker: LazyCostTracker,
        budget: Budget | None = None,
        *,
        skip: np.ndarray | None = None,
    ) -> int:
        """Run the climbing loop on a tracker, mutated in place; return accepted moves.

        ``skip`` is handed to the first pass (see
        :func:`repro.core.kernels.hc_pass`): it marks nodes known to have no
        improving move in the tracker's current state.  Sets
        :attr:`copy_stops`, :attr:`copy_accepted` and :attr:`last_stop`.  A
        pass that accepts nothing counts as converged only when the clock
        has not run out, since the clock may have cut that pass short.

        A copy without nodes has converged.  Every pass walks all copies
        still climbing; a copy stops at its step cap or after a pass
        without a move, so the copies share the pass count, the pass cap
        and the clock.  The returned count sums the copies' moves.
        """
        budget = budget or Budget()
        # the budget's step cap bounds this invocation on top of (never
        # instead of) the configured cap
        caps = [cap for cap in (self.max_steps, budget.max_steps) if cap is not None]
        max_steps = min(caps, default=None)
        offsets = tracker.node_offsets.tolist()
        count = tracker.num_copies
        moves: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]
        accepted = [0] * count
        # a copy without nodes stays converged; the others are set as they stop
        stops: list[str] = [CONVERGED] * count
        walking = [c for c in range(count) if offsets[c] != offsets[c + 1]]
        passes = 0
        while walking:
            if passes >= self.max_passes or budget.expired():
                stop = PASS_CAP if passes >= self.max_passes else CLOCK
                for c in walking:
                    stops[c] = stop
                break
            passes += 1
            # one kernel pass over every walking copy fuses candidate
            # evaluation and acceptance; the other copies sit it out (cap
            # 0), and -1 means no cap
            pass_caps = [0] * count
            for c in walking:
                pass_caps[c] = -1 if max_steps is None else max_steps - accepted[c]
            _, pass_moves = kernels.hc_pass(
                tracker, offsets[walking[0]], offsets[walking[-1] + 1], pass_caps, _EPS,
                budget=budget, skip=skip,
            )
            skip = None
            got = [0] * count
            for node, new_proc, new_step in pass_moves:
                c = bisect_right(offsets, node) - 1
                got[c] += 1
                if self.record_moves:
                    moves[c].append(
                        (node - offsets[c], new_proc, new_step - int(tracker.step_offsets[c]))
                    )
            still = []
            for c in walking:
                accepted[c] += got[c]
                if max_steps is not None and accepted[c] >= max_steps:
                    stops[c] = STEP_CAP
                elif not got[c]:
                    stops[c] = CLOCK if budget.expired() else CONVERGED
                else:
                    still.append(c)
            walking = still
        self.copy_stops = stops
        self.copy_accepted = accepted
        self.last_stop = stops[0]
        self.copy_moves = moves if self.record_moves else None
        self.last_moves = moves[0] if self.record_moves else None
        return sum(accepted)

    def refine_assignment(
        self,
        dag: ComputationalDAG | Sequence[ComputationalDAG],
        machine: BspMachine,
        procs: np.ndarray | Sequence[np.ndarray],
        supersteps: np.ndarray | Sequence[np.ndarray],
        budget: Budget | None = None,
        hand_off: tuple[LazyCostTracker, Sequence[tuple[int, np.ndarray] | None]] | None = None,
    ) -> tuple[LazyCostTracker, int]:
        """Hill-climb directly on assignment arrays, bypassing schedule objects.

        ``dag``, ``procs`` and ``supersteps`` are read as
        :class:`LazyCostTracker` reads them: one DAG and its arrays, or one
        DAG and one pair of arrays per copy.  Builds the tracker and runs
        :meth:`climb` on it; returns the tracker plus the number of
        accepted moves (:attr:`copy_stops` and :attr:`copy_accepted` say
        why each copy's burst stopped and what it accepted).  This is the
        multilevel refinement entry point: per-level bursts need neither
        schedule validation nor compaction, so the per-burst overhead is
        one tracker build for all the ratios a round refines.

        ``hand_off = (previous, unchanged)`` carries the verdicts of earlier
        climbs that converged on the tracker ``previous``.  ``unchanged``
        holds one entry per copy: ``None``, or ``(source, skip)``, where
        ``skip`` marks the nodes of the copy's DAG whose candidate scores
        equal those of a node of ``previous``'s copy ``source`` as long as
        the two copies' ``work`` and ``traffic`` rows are equal.  The
        copy's first pass then skips those nodes until its first accepted
        move.  The rows are compared here, bitwise, copy by copy; when they
        differ (a split moved a lazy transfer to another phase, float
        residue, another superstep count) that copy's verdict is ignored,
        so a hand-off can only save scoring, never change a move.
        """
        tracker = LazyCostTracker(dag, machine, procs, supersteps)
        skip = None
        if hand_off is not None and hand_off[0].machine is machine:
            previous, unchanged = hand_off
            for copy, verdict in enumerate(unchanged):
                if verdict is not None and _same_rows(previous, verdict[0], tracker, copy):
                    if skip is None:
                        skip = np.zeros(tracker.procs.size, dtype=bool)
                    skip[tracker.node_offsets[copy] : tracker.node_offsets[copy + 1]] = verdict[1]
        accepted = self.climb(tracker, budget, skip=skip)
        return tracker, accepted

    # ------------------------------------------------------------------ #
    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        return self.improve_many([schedule], budget)[0]

    def improve_many(
        self,
        schedules: list[BspSchedule],
        budget: Budget | None = None,
    ) -> list[BspSchedule]:
        """Climb one or more schedules on one machine; one result each.

        The schedules, of one DAG or of different ones, become the copies
        of one :class:`LazyCostTracker`, and :meth:`climb` walks them in
        lockstep on the one ``budget``.  Result ``t`` is what
        :meth:`improve` returns for ``schedules[t]`` alone: its climb makes
        the same moves and stops for the same reason (:attr:`copy_moves`,
        :attr:`copy_stops`), unless the shared clock cuts the climbs short.
        """
        schedules = list(schedules)
        machine = schedules[0].machine
        if any(s.machine is not machine for s in schedules):
            raise ValueError("improve_many needs schedules on one machine")
        tracker = LazyCostTracker(
            [s.dag for s in schedules],
            machine,
            [s.procs for s in schedules],
            [s.supersteps for s in schedules],
            [s.num_supersteps for s in schedules],
        )
        self.climb(tracker, budget)

        # Finish each copy from the tracker state instead of materialising
        # the lazy communication schedule: supersteps carrying neither
        # computation nor communication are compacted away (exactly what
        # ``BspSchedule.compacted()`` computes, without building the ``Γ``
        # frozenset), the candidate cost falls out of the maintained row
        # maxima, and re-validation is skipped — every accepted move passed
        # the validity mask, so the result is valid by construction.
        results = []
        for copy, schedule in enumerate(schedules):
            procs, compact_steps, num_used = tracker.compacted_assignment(copy)
            candidate_cost = tracker.cost(copy) - machine.latency * (
                schedule.num_supersteps - num_used
            )
            if candidate_cost >= schedule.cost() - _EPS:
                results.append(schedule)
            else:
                results.append(
                    BspSchedule(schedule.dag, machine, procs, compact_steps, validate=False)
                )
        return results
