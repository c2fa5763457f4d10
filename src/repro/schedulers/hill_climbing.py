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
  predecessors, scattered into one tensor over the block's touched traffic
  rows, reduced with one ``max`` and summed per node.

The pass loop :func:`repro.core.kernels.hc_pass` applies the block's
first improving move through :meth:`LazyCostTracker.apply_move` and resumes
after it, so every node is scored against exactly the state a node-by-node
walk would show it.  The seed implementation instead paid two full
``apply_move`` calls (probe + inverse rollback) per *rejected* candidate,
each re-deriving the transfers of ``v`` and all its predecessors in Python.
That seed walker is retained verbatim as
:class:`repro.schedulers.reference.HillClimbingImproverReference` and the
block path is pinned to it **move for move** (identical accepted-move
sequences and final ``(π, τ)``) by the differential tests; on
integer/dyadic-weight instances — every generator in this repository — the
two paths are bit-identical, not merely equal in cost.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..core.csr import NO_ENTRY, gather_rows, group_min_by_pair
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
#: cap on the working cells of one scored block: ``P`` per touched traffic
#: row and column (a step's candidate tensor, per send/receive side) plus
#: ``P`` per predecessor entry (a step's scatter lists).  It bounds a
#: block's memory, so :meth:`LazyCostTracker.candidate_deltas` may score
#: fewer nodes than asked for (never fewer than one).
_BLOCK_CELLS = 1 << 16


class LazyCostTracker:
    """Incrementally maintained cost of a lazy-communication BSP schedule.

    The tracker owns mutable copies of the assignment arrays.  The number of
    supersteps is fixed at construction time; node moves are restricted to
    the existing supersteps (the surrounding pipeline compacts empty
    supersteps afterwards).
    """

    def __init__(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        procs: np.ndarray,
        supersteps: np.ndarray,
        num_supersteps: int | None = None,
    ) -> None:
        self.dag = dag
        self.machine = machine
        self.procs = np.asarray(procs, dtype=np.int64).copy()
        self.supersteps = np.asarray(supersteps, dtype=np.int64).copy()
        self.num_supersteps = (
            int(self.supersteps.max(initial=-1)) + 1
            if num_supersteps is None
            else num_supersteps
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
        self._need = np.empty(P, dtype=np.int64)  # scratch for _transfers_of
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    _NO_NEED = np.iinfo(np.int64).max

    def _transfers_of(self, v: int) -> list[tuple[int, int, int, float]]:
        """Lazy transfers of node ``v``: list of ``(phase, source, target, volume)``."""
        dag = self.dag
        succ = dag.succ(v)
        if succ.size == 0:
            return []
        pv = int(self.procs[v])
        qs = self.procs[succ]
        foreign = qs != pv
        if not foreign.any():
            return []
        need = self._need
        need.fill(self._NO_NEED)
        np.minimum.at(need, qs[foreign], self.supersteps[succ[foreign]])
        comm_v = dag.comm(v)
        numa_row = self.machine.numa[pv]
        return [
            (int(need[q]) - 1, pv, q, comm_v * float(numa_row[q]))
            for q in np.flatnonzero(need != self._NO_NEED).tolist()
        ]

    def _build(self) -> None:
        """One grouped pass over the edge arrays fills work/send/recv.

        The same pass also fills the incremental first-need table:
        ``need_min[u, q]`` is the earliest superstep any successor of ``u``
        occupies on processor ``q`` (``NO_ENTRY`` when none does) and
        ``need_cnt[u, q]`` counts the successors achieving that minimum.
        :meth:`apply_move` maintains both in O(changed), which is what lets
        :meth:`candidate_deltas` skip the per-visit ragged gather over the
        predecessors' successor rows that earlier revisions rebuilt from
        scratch for every node.
        """
        dag = self.dag
        np.add.at(self.work, (self.supersteps, self.procs), dag.work_weights)
        self.need_min = np.full(
            (dag.num_nodes, self.machine.num_procs), NO_ENTRY, dtype=np.int64
        )
        self.need_cnt = np.zeros_like(self.need_min)
        src, dst = dag.edge_arrays()
        if src.size:
            qd = self.procs[dst]
            sd = self.supersteps[dst]
            np.minimum.at(self.need_min, (src, qd), sd)
            achieves = sd == self.need_min[src, qd]
            np.add.at(self.need_cnt, (src[achieves], qd[achieves]), 1)
            cross = self.procs[src] != self.procs[dst]
            if cross.any():
                cross_dst = dst[cross]
                u, q, sw = group_min_by_pair(
                    src[cross], self.procs[cross_dst], self.supersteps[cross_dst]
                )
                pv = self.procs[u]
                volumes = dag.comm_weights[u] * self.machine.numa[pv, q]
                np.add.at(self.send, (sw - 1, pv), volumes)
                np.add.at(self.recv, (sw - 1, q), volumes)
        np.max(self.work, axis=1, out=self._work_max)
        self.traffic.max(axis=0, out=self._comm_max)

    # ------------------------------------------------------------------ #
    # cost
    # ------------------------------------------------------------------ #
    def cost(self) -> float:
        """Current total cost (work + g·comm + latency)."""
        return float(
            self._work_max.sum()
            + self.machine.g * self._comm_max.sum()
            + self.machine.latency * self.num_supersteps
        )

    def _refresh_superstep(self, s: int) -> None:
        self._work_max[s] = self.work[s].max()
        self._comm_max[s] = self.traffic[:, s].max()

    # ------------------------------------------------------------------ #
    # moves
    # ------------------------------------------------------------------ #
    def is_valid_move(self, v: int, new_proc: int, new_step: int) -> bool:
        """Whether moving ``v`` to ``(new_proc, new_step)`` keeps the schedule valid."""
        if not 0 <= new_step < self.num_supersteps:
            return False
        if not 0 <= new_proc < self.machine.num_procs:
            return False
        dag = self.dag
        preds = dag.pred(v)
        if preds.size:
            su = self.supersteps[preds]
            same = self.procs[preds] == new_proc
            if np.any(same & (su > new_step)) or np.any(~same & (su >= new_step)):
                return False
        succs = dag.succ(v)
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
        of node ``k`` is keyed ``k * S + t``, so one ``unique`` serves the
        whole block and ``np.add.reduceat`` sums each node's rows (a node
        owns at least its rows ``τ - 2 .. τ``, so no segment is empty).
        """
        dag = self.dag
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
        preds, pred_off = gather_rows(dag.pred_indptr, dag.pred_indices, nodes)
        pk = np.repeat(kr, np.diff(pred_off))  # block index of each entry
        table = self.need_min[preds]
        p0k = p0[pk]
        suspects = np.flatnonzero(
            (table[np.arange(preds.size), p0k] == s0[pk])
            & (self.need_cnt[preds, p0k] == 1)
        )
        if suspects.size:
            flat, offsets = gather_rows(dag.succ_indptr, dag.succ_indices, preds[suspects])
            rows_idx = np.repeat(np.arange(suspects.size, dtype=_INT), np.diff(offsets))
            owner = pk[suspects][rows_idx]
            keep = (flat != nodes[owner]) & (self.procs[flat] == p0[owner])
            col = np.full(suspects.size, NO_ENTRY, dtype=_INT)
            np.minimum.at(col, rows_idx[keep], self.supersteps[flat[keep]])
            table[suspects, p0k[suspects]] = col

        # every traffic row a candidate can touch: v's transfer phases, the
        # predecessors' v-free phases and the phases just below the three
        # candidate steps.  Phases of *invalid* candidates may fall outside
        # [0, S); they are clipped — the clipped updates only pollute rows
        # of candidates the validity mask discards.  ``unique``'s inverse
        # places every piece on its row, so no row is searched for later.
        need_v = self.need_min[nodes]
        tk, tq = np.nonzero(need_v != NO_ENTRY)  # v's transfer targets
        fe, fq = np.nonzero(table != NO_ENTRY)  # predecessors' other needs
        phases = np.concatenate(
            (need_v[tk, tq] - 1, table[fe, fq] - 1, (s0[:, None] + _STEP_ROWS).ravel())
        )
        keys, at = np.unique(
            np.concatenate((tk, pk[fe], np.repeat(kr, 3))) * stride
            + np.minimum(np.maximum(phases, 0), stride - 1),
            return_inverse=True,
        )
        at_t, at_f, at_s = at[: tk.size], at[tk.size : -3 * K], at[-3 * K :].reshape(K, 3)
        ends = np.searchsorted(keys, (kr + 1) * stride)  # end of each node's rows
        # a prefix's working cells: its candidate tensor and scatter lists
        cells = P * (P * ends + pred_off[1:])
        fit = max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        if fit < K:
            K = fit
            E = int(pred_off[K])
            kr, nodes, p0, s0, at_s = kr[:K], nodes[:K], p0[:K], s0[:K], at_s[:K]
            preds, pk, p0k, table = preds[:E], pk[:E], p0k[:E], table[:E]
            nt, nf = np.searchsorted(tk, K), np.searchsorted(fe, E)
            tk, tq, at_t, fe, fq, at_f = tk[:nt], tq[:nt], at_t[:nt], fe[:nf], fq[:nf], at_f[:nf]
            keys = keys[: ends[K - 1]]
        R = keys.size
        rows = keys % stride
        at_table = np.empty(table.shape, dtype=_INT)  # row of each finite need
        at_table[fe, fq] = at_f

        valid = self._block_validity(nodes, preds, pk, p0, s0)

        # --- work component ------------------------------------------- #
        # weights are non-negative, so adding w at q never lowers the row
        # and max(m0, row + w) is the row maximum after the move
        w = dag.work_weights[nodes][:, None]
        wm = self._work_max
        removed0 = self.work[s0]
        removed0[kr, p0] -= w[:, 0]
        m0 = removed0.max(axis=1)
        deltas = np.empty((K, 3, P))
        deltas[:, 1] = np.maximum(m0[:, None], removed0 + w) - wm[s0][:, None]
        for i, s in ((0, np.maximum(s0 - 1, 0)), (2, np.minimum(s0 + 1, stride - 1))):
            wms = wm[s][:, None]
            deltas[:, i] = (np.maximum(wms, self.work[s] + w) - wms) + (m0 - wm[s0])[:, None]

        # --- communication component ----------------------------------- #
        # The traffic rows of the candidates (i, q) of one step i are
        # scattered into the flat cells of a (send/recv column, target q,
        # row) tensor: with the columns outermost, every row maximum is one
        # elementwise maximum over 2P contiguous slabs.  Pairs with a zero
        # NUMA multiplier (a processor "sending" to itself) add zero volume,
        # so they are scattered along instead of masked out.
        c_v = dag.comm_weights[nodes]
        pp = self.procs[preds]
        pvol = dag.comm_weights[preds][:, None] * numa[pp]  # (E, P)
        procs = np.arange(P, dtype=_INT)

        # candidate-independent diffs: v's old transfers disappear, the
        # predecessors' transfers to p0 (they feed v there) move to their
        # v-free phase
        fi = np.flatnonzero(pp != p0k)
        fk = pk[fi]
        t_p0 = table[fi, p0[fk]]
        at_p0 = at_table[fi, p0[fk]]
        finite = t_p0 != NO_ENTRY
        vol_p0 = pvol[fi, p0[fk]]
        at_c = np.concatenate((at_t, np.where(t_p0 < s0[fk], at_p0, at_s[fk, 1]), at_p0[finite]))
        vols = np.concatenate((-c_v[tk] * numa[p0[tk], tq], -vol_p0, vol_p0[finite]))
        send_col = np.concatenate((p0[tk], pp[fi], pp[fi[finite]]))
        recv_col = np.concatenate((tq, p0[fk], p0[fk[finite]])) + P
        base = self.traffic[:, rows] + np.bincount(
            np.concatenate((send_col * R + at_c, recv_col * R + at_c)),
            np.concatenate((vols, vols)),
            2 * P * R,
        ).reshape(2 * P, R)

        # per-target diffs: v's new transfers from q, and the predecessors'
        # existing transfers to q disappear (they are re-added at their new
        # phase in the per-step scatter below)
        q = procs[:, None]
        vols = np.concatenate(((c_v[tk] * numa[:, tq]).ravel(), -pvol[fe, fq]))
        by_target = base[:, None] + np.bincount(
            np.concatenate(
                (
                    (q * (P + 1) * R + at_t).ravel(),
                    (pp[fe] * P + fq) * R + at_f,
                    (((P + tq) * P + q) * R + at_t).ravel(),
                    (fq * (P + 1) + P * P) * R + at_f,
                )
            ),
            np.concatenate((vols, vols)),
            2 * P * P * R,
        ).reshape(2 * P, P, R)

        # per-step diffs: every predecessor now also feeds v on q, so its
        # transfer to q lands at min(first other need, s) - 1
        comm = np.empty((3, P, K))
        comm_max = self._comm_max[rows]
        starts = np.concatenate(([0], ends[: K - 1]))
        lead_send = (pp[:, None] * P + procs) * R
        lead_recv = ((P + procs) * P + procs) * R
        vols = np.concatenate((pvol.ravel(), pvol.ravel()))
        for i in range(3):
            at_i = np.where(table < (s0 - 1 + i)[pk][:, None], at_table, at_s[pk, i][:, None])
            moved = by_target + np.bincount(
                np.concatenate(((lead_send + at_i).ravel(), (lead_recv + at_i).ravel())),
                vols,
                2 * P * P * R,
            ).reshape(2 * P, P, R)
            comm[i] = np.add.reduceat(moved.max(axis=0) - comm_max, starts, axis=1)
        deltas += self.machine.g * comm.transpose(2, 0, 1)
        return deltas, valid

    def _block_validity(
        self,
        nodes: np.ndarray,
        preds: np.ndarray,
        pk: np.ndarray,
        p0: np.ndarray,
        s0: np.ndarray,
    ) -> np.ndarray:
        """Boolean ``(K, 3, P)`` mask of the valid single-node moves of a block.

        Semantically identical to :meth:`is_valid_move` for every candidate
        (staying put excluded), evaluated from the flattened neighbour
        slices (``preds`` with their block indices ``pk``): a predecessor
        scheduled *after* a candidate step (a successor *before* it) kills
        the whole step, neighbours *tied* at the step force the single
        processor they occupy — and kill the step when they disagree.
        """
        P = self.machine.num_procs
        K = nodes.size
        succs, succ_off = gather_rows(self.dag.succ_indptr, self.dag.succ_indices, nodes)
        sk = np.repeat(np.arange(K, dtype=_INT), np.diff(succ_off))
        steps = s0[:, None] + _STEP_OFFSETS  # (K, 3)
        # rel > 0: the neighbour forbids the step; rel == 0: it is tied there
        rel = np.concatenate(
            (
                self.supersteps[preds][:, None] - steps[pk],
                steps[sk] - self.supersteps[succs][:, None],
            )
        )
        cell = np.concatenate((pk, sk))[:, None] * 3 + np.arange(3, dtype=_INT)
        open_steps = ((steps >= 0) & (steps < self.num_supersteps)).ravel()
        open_steps[cell[rel > 0]] = False
        tied = rel == 0
        tied_cells = cell[tied]
        tied_procs = np.broadcast_to(
            np.concatenate((self.procs[preds], self.procs[succs]))[:, None], rel.shape
        )[tied]
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
        """Apply the move and return the resulting change in total cost."""
        dag = self.dag
        old_proc = int(self.procs[v])
        old_step = int(self.supersteps[v])
        if (old_proc, old_step) == (new_proc, new_step):
            return 0.0

        touched: set[int] = {old_step, new_step}

        affected = [v, *dag.pred(v).tolist()]
        old_transfers = {u: self._transfers_of(u) for u in affected}

        before = (
            self._work_max.sum()
            + self.machine.g * self._comm_max.sum()
        )

        # work
        work_v = dag.work(v)
        self.work[old_step, old_proc] -= work_v
        self.work[new_step, new_proc] += work_v

        # remove old transfer volumes of v and its predecessors
        for u in affected:
            for phase, source, target, volume in old_transfers[u]:
                self.send[phase, source] -= volume
                self.recv[phase, target] -= volume
                touched.add(phase)

        # reassign and add back the recomputed transfers
        self.procs[v] = new_proc
        self.supersteps[v] = new_step
        self._update_need(v, old_proc, old_step, new_proc, new_step)
        for u in affected:
            for phase, source, target, volume in self._transfers_of(u):
                self.send[phase, source] += volume
                self.recv[phase, target] += volume
                touched.add(phase)

        for s in touched:
            if 0 <= s < self.num_supersteps:
                self._refresh_superstep(s)

        after = (
            self._work_max.sum()
            + self.machine.g * self._comm_max.sum()
        )
        return float(after - before)

    def _update_need(
        self, v: int, old_proc: int, old_step: int, new_proc: int, new_step: int
    ) -> None:
        """Maintain the first-need (min, count) rows of ``v``'s predecessors.

        Must run after ``procs[v]``/``supersteps[v]`` have been reassigned.
        ``v``'s contribution moves from ``(old_proc, old_step)`` to
        ``(new_proc, new_step)``: the addition is applied first (against the
        pre-addition minima), then the removal — a predecessor whose achiever
        count drops to zero gets its column rescanned from its successor row
        (rare: it requires ``v`` to have been the sole achiever).  ``v``'s own
        row is untouched — its successors did not move.
        """
        preds = self.dag.pred(v)
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
            flat, offsets = gather_rows(self.dag.succ_indptr, self.dag.succ_indices, dead)
            rows_idx = np.repeat(np.arange(dead.size, dtype=_INT), np.diff(offsets))
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

    def assignment(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the current ``(π, τ)`` arrays."""
        return self.procs.copy(), self.supersteps.copy()

    def compacted_assignment(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(π, τ', num_used)`` with empty supersteps renumbered away.

        A superstep survives when it holds computation (appears in ``τ``)
        or is the phase of a lazy transfer: ``need_min[u, q] - 1`` for every
        processor ``q != π(u)`` that needs ``u``.  This is exactly the set
        ``BspSchedule.compacted()`` keeps, read from the first-need table
        instead of a materialised ``Γ``.  The traffic rows cannot stand in
        for it: a zero-volume transfer leaves no trace there, and removing a
        transfer by subtraction can leave float residue in a row.
        """
        procs, supersteps = self.assignment()
        needs = self.need_min != NO_ENTRY
        needs[np.arange(procs.size), procs] = False
        used = np.union1d(supersteps, self.need_min[needs] - 1)
        return procs, np.searchsorted(used, supersteps), used.size


class HillClimbingImprover(ScheduleImprover):
    """Greedy first-improvement hill climbing over single-node moves (``HC``).

    Each pass is the block walk of :func:`repro.core.kernels.hc_pass`: runs
    of nodes have their whole ``3 x P`` candidate neighbourhoods scored
    together, read-only (:meth:`LazyCostTracker.candidate_deltas`), and only
    the accepted moves mutate the tracker.  The accepted-move sequence is
    identical to the retained probe-and-rollback walker
    :class:`repro.schedulers.reference.HillClimbingImproverReference`.  A
    wall-clock budget is checked before every block, and every pass opens
    with a full-size block, so a run may overrun its clock by one full
    block's evaluation.

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
        last run are kept in :attr:`last_moves` (differential tests and
        benchmarks use this to pin the vectorized and reference paths
        together).

    Every run records in :attr:`last_stop` why its climb stopped:
    :data:`CONVERGED` (a full pass accepted no move), :data:`STEP_CAP`,
    :data:`PASS_CAP` or :data:`CLOCK`.
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

    # ------------------------------------------------------------------ #
    def climb(
        self,
        tracker: LazyCostTracker,
        budget: Budget | None = None,
        *,
        skip: np.ndarray | None = None,
    ) -> int:
        """Run the climbing loop on an existing tracker; return accepted moves.

        The tracker is mutated in place, which is what lets callers (the
        multilevel refinement phase) reuse one tracker across several short
        bursts at a fixed uncoarsening level instead of rebuilding the
        work/send/receive matrices anew for every burst.  ``skip`` is
        handed to the first pass (see :func:`repro.core.kernels.hc_pass`):
        it marks nodes known to have no improving move in the tracker's
        current state.  Sets :attr:`last_stop`.  A pass that accepts nothing
        counts as converged only when the clock has not run out, since the
        clock may have cut that pass short.
        """
        budget = budget or Budget()
        # the budget's step cap bounds this invocation on top of (never
        # instead of) the configured cap
        caps = [cap for cap in (self.max_steps, budget.max_steps) if cap is not None]
        max_steps = min(caps, default=None)
        moves: list[tuple[int, int, int]] = []
        self.last_moves = moves if self.record_moves else None
        num_nodes = tracker.dag.num_nodes
        accepted = 0
        passes = 0
        while True:
            if passes >= self.max_passes:
                stop = PASS_CAP
                break
            if budget.expired():
                stop = CLOCK
                break
            passes += 1
            # one kernel pass over all nodes fuses candidate evaluation
            # and acceptance
            cap = None if max_steps is None else max_steps - accepted
            got, pass_moves = kernels.hc_pass(
                tracker, 0, num_nodes, cap, _EPS, budget=budget, skip=skip
            )
            skip = None
            accepted += got
            if self.record_moves:
                moves.extend(pass_moves)
            if max_steps is not None and accepted >= max_steps:
                stop = STEP_CAP
                break
            if not got:
                stop = CLOCK if budget.expired() else CONVERGED
                break
        self.last_stop = stop
        return accepted

    def refine_assignment(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        procs: np.ndarray,
        supersteps: np.ndarray,
        budget: Budget | None = None,
        tracker: LazyCostTracker | None = None,
        hand_off: tuple[LazyCostTracker, np.ndarray] | None = None,
    ) -> tuple[LazyCostTracker, int]:
        """Hill-climb directly on assignment arrays, bypassing schedule objects.

        Builds the tracker once and runs :meth:`climb` on it; returns the
        tracker plus the number of accepted moves (:attr:`last_stop` says
        why the burst stopped).  A passed-in ``tracker`` is reused only when
        it belongs to the same ``(dag, machine)`` *and* its internal
        ``(π, τ)`` equals the given arrays — on any mismatch a fresh tracker
        is built from the arrays, so a caller-side assignment edit is never
        silently discarded.  This is the multilevel refinement entry point:
        per-level bursts need neither schedule validation nor compaction, so
        the per-burst overhead is one tracker build — and zero when the
        caller passes the previous burst's tracker back in (with that
        tracker's own arrays).

        ``hand_off = (previous, skip)`` carries the verdict of an earlier
        climb that converged on the tracker ``previous``: ``skip`` marks the
        nodes of ``dag`` whose candidate scores equal those of a node of
        ``previous`` as long as the two trackers' ``work`` and ``traffic``
        arrays are equal.  The first pass then skips those nodes until its
        first accepted move.  The arrays are compared here, bitwise; when
        they differ (a split moved a lazy transfer to another phase, float
        residue, another superstep count) the hand-off is ignored, so it can
        only save scoring, never change a move.
        """
        reusable = (
            tracker is not None
            and tracker.dag is dag
            and tracker.machine is machine
            and np.array_equal(tracker.procs, procs)
            and np.array_equal(tracker.supersteps, supersteps)
        )
        if not reusable:
            tracker = LazyCostTracker(dag, machine, procs, supersteps)
        skip = None
        if hand_off is not None:
            previous, unchanged = hand_off
            if (
                previous.machine is machine
                and np.array_equal(previous.work, tracker.work)
                and np.array_equal(previous.traffic, tracker.traffic)
            ):
                skip = unchanged
        accepted = self.climb(tracker, budget, skip=skip)
        return tracker, accepted

    # ------------------------------------------------------------------ #
    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        dag = schedule.dag
        machine = schedule.machine
        if dag.num_nodes == 0 or schedule.num_supersteps == 0:
            self.last_moves = [] if self.record_moves else None
            self.last_stop = CONVERGED
            return schedule

        tracker = LazyCostTracker(
            dag, machine, schedule.procs, schedule.supersteps, schedule.num_supersteps
        )
        self.climb(tracker, budget)

        # Finish from the tracker state instead of materialising the lazy
        # communication schedule: supersteps carrying neither computation
        # nor communication are compacted away (exactly what
        # ``BspSchedule.compacted()`` computes, without building the ``Γ``
        # frozenset), the candidate cost falls out of the maintained row
        # maxima, and re-validation is skipped — every accepted move passed
        # the validity mask, so the result is valid by construction.
        procs, compact_steps, num_used = tracker.compacted_assignment()
        candidate_cost = tracker.cost() - machine.latency * (
            tracker.num_supersteps - num_used
        )
        if candidate_cost >= schedule.cost() - _EPS:
            return schedule
        return BspSchedule(dag, machine, procs, compact_steps, validate=False)
