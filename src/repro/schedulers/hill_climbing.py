"""Hill-climbing local search over node assignments (``HC``, paper §4.3, Appendix A.3).

Starting from a valid BSP schedule (with the lazy communication schedule),
``HC`` repeatedly applies single-node moves — reassigning one node to any
processor in its current superstep, the previous superstep or the next
superstep — as long as a move strictly decreases the total cost.  The paper
uses the greedy "first improving move" variant, which is what this module
implements.

Cost changes are maintained incrementally through :class:`LazyCostTracker`,
which keeps per-superstep/per-processor work, send and receive volumes under
the lazy communication schedule.  Candidate evaluation is a **batched,
read-only neighbourhood pass**: for every node ``v``,
:meth:`LazyCostTracker.candidate_deltas` computes the exact cost delta of
all ``3 x P`` candidate ``(superstep, processor)`` moves at once —

* validity masks from the predecessor/successor CSR slices,
* work deltas from the affected row maxima (max-excluding via the row's
  top-2 entries),
* send/receive deltas from a per-node transfer table: the "first superstep
  that needs the value on each processor" minima of ``v`` and of all its
  predecessors, gathered in one ragged CSR pass
  (:func:`repro.core.csr.group_min_table`), scattered into per-candidate
  sparse row diffs and reduced with one tensor ``max``.

Only the single accepted move then mutates the tracker through
:meth:`LazyCostTracker.apply_move` — the seed implementation instead paid
two full ``apply_move`` calls (probe + inverse rollback) per *rejected*
candidate, each re-deriving the transfers of ``v`` and all its predecessors
in Python.  That seed walker is retained verbatim as
:class:`repro.schedulers.reference.HillClimbingImproverReference` and the
batched path is pinned to it **move for move** (identical accepted-move
sequences and final ``(π, τ)``) by the differential tests; on
integer/dyadic-weight instances — every generator in this repository — the
two paths are bit-identical, not merely equal in cost.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..core.csr import NO_ENTRY, gather_rows, group_min_by_pair, row_max_excluding
from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import ScheduleImprover, TimeBudget, budget_limits

__all__ = ["LazyCostTracker", "HillClimbingImprover"]

_EPS = 1e-9
_INT = np.int64


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
        self.send = np.zeros((S, P), dtype=np.float64)
        self.recv = np.zeros((S, P), dtype=np.float64)
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
        np.maximum(self.send, self.recv).max(axis=1, out=self._comm_max)

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
        self._comm_max[s] = np.maximum(self.send[s], self.recv[s]).max()

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

    def candidate_validity(self, v: int) -> np.ndarray:
        """Boolean ``(3, P)`` mask of the valid single-node moves of ``v``.

        Row ``i`` covers superstep ``τ(v) - 1 + i``; the current position is
        masked out.  Semantically identical to calling :meth:`is_valid_move`
        for every candidate, but evaluated from the CSR neighbour slices in
        a handful of vector operations: a predecessor scheduled *after* a
        candidate step kills the whole step, predecessors/successors *tied*
        at the step force the single processor they occupy.
        """
        P = self.machine.num_procs
        S = self.num_supersteps
        s0 = int(self.supersteps[v])
        preds = self.dag.pred(v)
        succs = self.dag.succ(v)
        sp = self.supersteps[preds]
        pp = self.procs[preds]
        sw = self.supersteps[succs]
        pw = self.procs[succs]
        valid = np.zeros((3, P), dtype=bool)
        for i, s in enumerate((s0 - 1, s0, s0 + 1)):
            if not 0 <= s < S:
                continue
            forced = -1
            if preds.size:
                if (sp > s).any():
                    continue
                tied = pp[sp == s]
                if tied.size:
                    forced = int(tied[0])
                    if (tied != forced).any():
                        continue
            if succs.size:
                if (sw < s).any():
                    continue
                tied = pw[sw == s]
                if tied.size:
                    succ_forced = int(tied[0])
                    if (tied != succ_forced).any():
                        continue
                    if 0 <= forced != succ_forced:
                        continue
                    forced = succ_forced
            if forced >= 0:
                valid[i, forced] = True
            else:
                valid[i, :] = True
        valid[1, int(self.procs[v])] = False
        return valid

    def candidate_deltas(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact cost deltas of all ``3 x P`` candidate moves of ``v`` (read-only).

        Returns ``(deltas, valid)`` where ``deltas[i, q]`` is the change of
        the tracked cost (work + g·comm; latency is constant) if ``v`` moves
        to ``(superstep τ(v) - 1 + i, processor q)``.  Entries with
        ``valid[i, q] == False`` are meaningless.  The tracker state is not
        modified; for a valid candidate the value equals what
        :meth:`apply_move` would return (bit-identically so under exact —
        integer/dyadic — weight arithmetic).
        """
        dag = self.dag
        machine = self.machine
        numa = machine.numa
        P = machine.num_procs
        S = self.num_supersteps
        p0 = int(self.procs[v])
        s0 = int(self.supersteps[v])
        steps3 = (s0 - 1, s0, s0 + 1)

        valid = self.candidate_validity(v)
        deltas = np.zeros((3, P), dtype=np.float64)
        if not valid.any():
            return deltas, valid

        # --- work component ------------------------------------------- #
        w = dag.work(v)
        wm = self._work_max
        removed0 = self.work[s0].copy()
        removed0[p0] -= w
        m0 = removed0.max()  # row s0 maximum once v's work is gone
        for i, s in enumerate(steps3):
            if not valid[i].any():
                continue
            if s == s0:
                # the row both loses w at p0 and gains w at the candidate q
                excl = row_max_excluding(removed0)
                deltas[i] = np.maximum(excl, removed0 + w) - wm[s0]
            else:
                row = self.work[s]
                deltas[i] = (np.maximum(wm[s], row + w) - wm[s]) + (m0 - wm[s0])

        # --- communication component ----------------------------------- #
        preds = dag.pred(v)
        succs = dag.succ(v)
        if preds.size == 0 and succs.size == 0:
            return deltas, valid  # isolated node: work deltas only

        g = machine.g
        c_v = dag.comm(v)
        top = max(S - 1, 0)

        # first superstep needing v's value on each processor: exactly
        # v's row of the incrementally maintained first-need table
        need_v = self.need_min[v]
        targets_v = np.flatnonzero(need_v != NO_ENTRY)
        phases_v = need_v[targets_v] - 1

        # per-predecessor "first need on each processor" table, v excluded.
        # v only ever contributes the entry (p0, s0), so the maintained rows
        # are already v-free everywhere except possibly column p0 — and
        # there only when v is the *sole* achiever of the minimum
        # (need == s0 with count 1), in which case that entry is rescanned
        # from the predecessor's successor row without v.
        d = preds.size
        if d:
            table = self.need_min[preds].copy()
            suspects = np.flatnonzero(
                (table[:, p0] == s0) & (self.need_cnt[preds, p0] == 1)
            )
            if suspects.size:
                sole = preds[suspects]
                flat, offsets = gather_rows(dag.succ_indptr, dag.succ_indices, sole)
                rows_idx = np.repeat(
                    np.arange(sole.size, dtype=_INT), np.diff(offsets)
                )
                keep = (flat != v) & (self.procs[flat] == p0)
                col = np.full(sole.size, NO_ENTRY, dtype=_INT)
                np.minimum.at(col, rows_idx[keep], self.supersteps[flat[keep]])
                table[suspects, p0] = col
            pred_procs = self.procs[preds]
            pred_vols = dag.comm_weights[preds][:, None] * numa[pred_procs]  # (d, P)
        else:
            table = np.empty((0, P), dtype=_INT)
            pred_procs = np.empty(0, dtype=_INT)
            pred_vols = np.empty((0, P), dtype=np.float64)

        foreign = np.flatnonzero(pred_procs != p0)  # preds that transfer to p0
        old_need_p0 = np.minimum(table[foreign, p0], s0)
        finite_p0 = foreign[table[foreign, p0] != NO_ENTRY]

        # ---- the two step-only candidates (q == p0, s = s0 ± 1) -------- #
        # v's own transfers are untouched (same source, same targets, and
        # their phases depend only on the successors' supersteps); only the
        # predecessors' transfers *to p0* can move phase.
        for i, s in ((0, s0 - 1), (2, s0 + 1)):
            if not valid[i, p0]:
                continue
            comm_delta = 0.0
            if foreign.size:
                new_need_p0 = np.minimum(table[foreign, p0], s)
                changed = np.flatnonzero(new_need_p0 != old_need_p0)
                if changed.size:
                    u = foreign[changed]
                    vols = pred_vols[u, p0]
                    touched = np.unique(
                        np.concatenate(
                            (old_need_p0[changed] - 1, new_need_p0[changed] - 1)
                        )
                    )
                    dsend = np.zeros((touched.size, P))
                    drecv = np.zeros((touched.size, P))
                    lo = np.searchsorted(touched, old_need_p0[changed] - 1)
                    ln = np.searchsorted(touched, new_need_p0[changed] - 1)
                    np.add.at(dsend, (lo, pred_procs[u]), -vols)
                    np.add.at(drecv, (lo, p0), -vols)
                    np.add.at(dsend, (ln, pred_procs[u]), vols)
                    np.add.at(drecv, (ln, p0), vols)
                    row_max = np.maximum(
                        self.send[touched] + dsend, self.recv[touched] + drecv
                    ).max(axis=1)
                    comm_delta = float((row_max - self._comm_max[touched]).sum())
            deltas[i, p0] += g * comm_delta

        # ---- the proc-change candidates (q != p0, all three steps) ----- #
        # Collect every superstep phase any candidate can touch.  Phases of
        # *invalid* candidates may fall outside [0, S); they are clipped —
        # the clipped updates only pollute rows of candidates the validity
        # mask discards (a valid move never produces an out-of-range phase).
        finite_entries = table[table != NO_ENTRY]
        pieces = np.concatenate(
            (
                phases_v,
                finite_entries - 1,
                old_need_p0 - 1,
                np.array((s0 - 2, s0 - 1, s0), dtype=_INT),
            )
        )
        touched = np.unique(np.minimum(np.maximum(pieces, 0), top))
        T = touched.size

        def loc(phases: np.ndarray) -> np.ndarray:
            return np.searchsorted(touched, np.minimum(np.maximum(phases, 0), top))

        # candidate-independent diffs: v's old transfers disappear, the
        # predecessors' transfers to p0 move to their v-free phase
        dsend_c = np.zeros((T, P))
        drecv_c = np.zeros((T, P))
        out = targets_v[targets_v != p0]
        if out.size:
            vols = c_v * numa[p0, out]
            where = loc(need_v[out] - 1)
            np.add.at(dsend_c, (where, p0), -vols)
            np.add.at(drecv_c, (where, out), -vols)
        if foreign.size:
            vols = pred_vols[foreign, p0]
            where = loc(old_need_p0 - 1)
            np.add.at(dsend_c, (where, pred_procs[foreign]), -vols)
            np.add.at(drecv_c, (where, p0), -vols)
        if finite_p0.size:
            vols = pred_vols[finite_p0, p0]
            where = loc(table[finite_p0, p0] - 1)
            np.add.at(dsend_c, (where, pred_procs[finite_p0]), vols)
            np.add.at(drecv_c, (where, p0), vols)

        # per-target-processor diffs: v's new transfers from q, and the
        # predecessors' existing transfers to q disappear (they are re-added
        # at their new phase in the per-step scatter below)
        dsend_q = np.zeros((P, T, P))
        drecv_q = np.zeros((P, T, P))
        if targets_v.size:
            qq = np.repeat(np.arange(P, dtype=_INT), targets_v.size)
            rr = np.tile(targets_v, P)
            keep = rr != qq
            qq, rr = qq[keep], rr[keep]
            vols = c_v * numa[qq, rr]
            where = np.tile(loc(phases_v), P)[keep]
            np.add.at(dsend_q, (qq, where, qq), vols)
            np.add.at(drecv_q, (qq, where, rr), vols)
        if d:
            pair_mask = np.arange(P, dtype=_INT)[None, :] != pred_procs[:, None]
            ui, qi = np.nonzero(pair_mask & (table != NO_ENTRY))
            if ui.size:
                vols = pred_vols[ui, qi]
                where = loc(table[ui, qi] - 1)
                np.add.at(dsend_q, (qi, where, pred_procs[ui]), -vols)
                np.add.at(drecv_q, (qi, where, qi), -vols)

        # per-(step, target) diffs: every predecessor now also feeds v on q,
        # so its transfer to q lands at min(first other need, s) - 1; all
        # three steps are scattered in one fused call per traffic side
        dsend_s = np.zeros((3, P, T, P))
        drecv_s = np.zeros((3, P, T, P))
        if d:
            ui, qi = np.nonzero(pair_mask)
            if ui.size:
                k = ui.size
                vols3 = np.tile(pred_vols[ui, qi], 3)
                where3 = loc(
                    (
                        np.minimum(
                            table[ui, qi][None, :],
                            np.array(steps3, dtype=_INT)[:, None],
                        )
                        - 1
                    ).ravel()
                )
                step3 = np.repeat(np.arange(3, dtype=_INT), k)
                qi3 = np.tile(qi, 3)
                np.add.at(dsend_s, (step3, qi3, where3, np.tile(pred_procs[ui], 3)), vols3)
                np.add.at(drecv_s, (step3, qi3, where3, qi3), vols3)

        base_send = self.send[touched] + dsend_c
        base_recv = self.recv[touched] + drecv_c
        new_send = base_send[None, None] + dsend_q[None] + dsend_s
        new_recv = base_recv[None, None] + drecv_q[None] + drecv_s
        row_max = np.maximum(new_send, new_recv).max(axis=3)  # (3, P, T)
        comm_delta = (row_max - self._comm_max[touched][None, None]).sum(axis=2)
        keep_p0 = deltas[:, p0].copy()  # step-only column computed above
        deltas += g * comm_delta
        deltas[:, p0] = keep_p0
        return deltas, valid

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
        or carries traffic (a nonzero send row); this is exactly the set
        ``BspSchedule.compacted()`` keeps for a lazy-communication schedule
        with positive transfer volumes, computed from the tracker matrices
        instead of a materialised ``Γ``.
        """
        procs, supersteps = self.assignment()
        busy = np.flatnonzero(
            (self.work != 0).any(axis=1) | (self.send != 0).any(axis=1)
        )
        used = np.union1d(np.unique(supersteps), busy)
        return procs, np.searchsorted(used, supersteps), used.size


class HillClimbingImprover(ScheduleImprover):
    """Greedy first-improvement hill climbing over single-node moves (``HC``).

    Every node's whole ``3 x P`` candidate neighbourhood is evaluated in one
    read-only batched pass (:meth:`LazyCostTracker.candidate_deltas`); only
    the accepted move mutates the tracker.  The accepted-move sequence is
    identical to the retained probe-and-rollback walker
    :class:`repro.schedulers.reference.HillClimbingImproverReference`.

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

    # ------------------------------------------------------------------ #
    def climb(
        self,
        tracker: LazyCostTracker,
        budget: TimeBudget | None = None,
        max_steps: int | None = None,
    ) -> int:
        """Run the climbing loop on an existing tracker; return accepted moves.

        The tracker is mutated in place, which is what lets callers (the
        multilevel refinement phase) reuse one tracker across several short
        bursts at a fixed uncoarsening level instead of rebuilding the
        work/send/receive matrices from scratch per burst.
        """
        budget = budget or TimeBudget.unlimited()
        if max_steps is None:
            max_steps = self.max_steps
        budget_steps, _ = budget_limits(budget)
        if budget_steps is not None:
            # a unified Budget's deterministic step cap bounds this
            # invocation on top of (never instead of) the configured cap
            max_steps = (
                budget_steps if max_steps is None else min(max_steps, budget_steps)
            )
        moves: list[tuple[int, int, int]] = []
        self.last_moves = moves if self.record_moves else None
        num_nodes = tracker.dag.num_nodes
        accepted = 0
        improved_any = True
        passes = 0
        while improved_any and passes < self.max_passes and not budget.expired():
            improved_any = False
            passes += 1
            # one kernel pass over all nodes fuses candidate evaluation
            # and acceptance
            cap = None if max_steps is None else max_steps - accepted
            got, pass_moves = kernels.hc_pass(
                tracker, 0, num_nodes, cap, _EPS, budget=budget
            )
            accepted += got
            if got:
                improved_any = True
                if self.record_moves:
                    moves.extend(pass_moves)
            if max_steps is not None and accepted >= max_steps:
                break
        return accepted

    def refine_assignment(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        procs: np.ndarray,
        supersteps: np.ndarray,
        budget: TimeBudget | None = None,
        tracker: LazyCostTracker | None = None,
    ) -> tuple[LazyCostTracker, int]:
        """Hill-climb directly on assignment arrays, bypassing schedule objects.

        Builds the tracker once and runs :meth:`climb` on it; returns the
        tracker plus the number of accepted moves (zero means the burst
        converged).  A passed-in ``tracker`` is reused only when it belongs
        to the same ``(dag, machine)`` *and* its internal ``(π, τ)`` equals
        the given arrays — on any mismatch a fresh tracker is built from the
        arrays, so a caller-side assignment edit is never silently
        discarded.  This is the multilevel refinement entry point: per-level
        bursts need neither schedule validation nor compaction, so the
        per-burst overhead is one tracker build — and zero when the caller
        passes the previous burst's tracker back in (with that tracker's own
        arrays).
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
        accepted = self.climb(tracker, budget)
        return tracker, accepted

    # ------------------------------------------------------------------ #
    def improve(
        self,
        schedule: BspSchedule,
        budget: TimeBudget | None = None,
    ) -> BspSchedule:
        budget = budget or TimeBudget.unlimited()
        dag = schedule.dag
        machine = schedule.machine
        if dag.num_nodes == 0 or schedule.num_supersteps == 0:
            self.last_moves = [] if self.record_moves else None
            return schedule

        tracker = LazyCostTracker(
            dag, machine, schedule.procs, schedule.supersteps, schedule.num_supersteps
        )
        self.climb(tracker, budget)

        # Finish from the tracker state instead of materialising the lazy
        # communication schedule: supersteps carrying neither computation
        # nor traffic are compacted away with one ``unique`` pass (exactly
        # what ``BspSchedule.compacted()`` computes, without building the
        # ``Γ`` frozenset), the candidate cost falls out of the maintained
        # row maxima, and re-validation is skipped — every accepted move
        # passed the validity mask, so the result is valid by construction.
        zero_volume_transfers = bool((dag.comm_weights <= 0).any()) or bool(
            (machine.numa + np.eye(machine.num_procs) <= 0).any()
        )
        if zero_volume_transfers:
            # a zero-volume transfer leaves no trace in the traffic matrices
            # but still occupies ``Γ`` (and keeps its superstep alive during
            # compaction) — take the exact schedule-object path instead
            procs, supersteps = tracker.assignment()
            candidate = BspSchedule(dag, machine, procs, supersteps).compacted()
            return candidate if candidate.cost() < schedule.cost() - _EPS else schedule
        procs, compact_steps, num_used = tracker.compacted_assignment()
        candidate_cost = tracker.cost() - machine.latency * (
            tracker.num_supersteps - num_used
        )
        if candidate_cost >= schedule.cost() - _EPS:
            return schedule
        return BspSchedule(dag, machine, procs, compact_steps, validate=False)
