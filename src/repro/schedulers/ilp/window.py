"""Shared "superstep window" ILP formulation (paper §4.4, Appendix A.4).

All three assignment-optimising ILP methods of the paper — ``ILPfull``,
``ILPpart`` and ``ILPinit`` — are instances of the same problem: reassign a
set of nodes ``V0`` to processors and to supersteps inside a window
``S0 = [s_lo, s_hi]``, with the rest of the schedule fixed.  This module
implements that formulation once:

Variables
---------
* ``comp[v,p,s]``  (binary)      — node ``v ∈ V0`` computed on ``p`` in ``s``;
* ``send[v,p1,p2,s]`` (binary)   — value of ``v`` sent ``p1 → p2`` in the
  communication phase of ``s``; for boundary predecessors (values computed
  before the window) only ``p1 = π(v)`` is allowed, as in the paper;
* ``pres[v,p,s]`` (continuous)   — value of ``v`` available on ``p`` during
  superstep ``s`` (for computing successors or for sending);
* ``W[s]``, ``H[s]`` (continuous) — work and h-relation maxima per superstep.

Constraints ensure each ``V0`` node is computed exactly once, precedence
through availability, send-only-if-present, availability recurrences
anchored at the fixed context, presence of values needed by fixed successors
after the window, and the max-constraints defining ``W`` and ``H`` on top of
the fixed base traffic/work of nodes outside the model.  The objective is
``Σ_s W[s] + g · H[s]`` (latency is constant for a fixed window).

Model construction is **batched**: variable families are allocated as whole
blocks addressed by index arithmetic, the edge-indexed constraint families
(precedence, presence recurrences, send-presence coupling, work/communication
maxima) are emitted as flat coefficient arrays assembled with numpy over the
DAG's CSR edge slices, and the per-window Python dict building of the seed
implementation is gone.  The seed builder is retained as
``build_window_model_reference`` in ``tests/oracles/window_ilp.py`` and a
differential test pins both paths to the *same model* — variable count,
objective, bounds, integrality, row bounds and constraint matrix.  Only
construction is batched — the solver loop (HiGHS via :class:`MilpProblem`)
is untouched.

Simplifications relative to the paper: no extra
communication phase before the window, and cost savings from deleting fixed
transfers outside the window are ignored — both match the paper's own
pragmatic restrictions.  The surrounding pipeline re-derives the lazy
communication schedule after extraction and only accepts the result when the
exact evaluated cost improves, so these approximations never compromise
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ...core.comm import CommStep, comm_columns, lazy_transfers
from ...core.csr import gather_rows
from ...core.dag import ComputationalDAG
from ...core.exceptions import SolverError
from ...core.machine import BspMachine
from .backend import TIME_LIMIT, MilpProblem, MilpSolution

__all__ = ["WindowIlp", "WindowIlpResult", "estimate_window_variables"]

_INT = np.int64


def estimate_window_variables(
    num_reassigned: int, num_supersteps: int, num_procs: int
) -> int:
    """The paper's size estimate ``|V0| · |S0| · P²`` for a window ILP."""
    return num_reassigned * num_supersteps * num_procs * num_procs


@dataclass
class WindowIlpResult:
    """Result of a window ILP solve."""

    feasible: bool
    procs: dict[int, int]
    supersteps: dict[int, int]
    objective: float
    message: str = ""


class WindowIlp:
    """Builds and solves one superstep-window ILP.

    Parameters
    ----------
    dag, machine:
        Problem instance.
    fixed_procs, fixed_supersteps:
        Assignment arrays for the *whole* DAG; entries for nodes being
        reassigned (and nodes not yet assigned, for ``ILPinit``) are ignored
        and may be ``-1``.
    reassign:
        The nodes ``V0`` to (re)assign.
    window:
        Inclusive superstep window ``(s_lo, s_hi)``.
    context_comm:
        Communication steps of the fixed context; ``None`` means the lazy
        communication schedule of the fixed assignment, read as columns
        from :func:`~repro.core.comm.lazy_transfers`.  Steps of nodes being
        reassigned are ignored; steps of boundary predecessors delivered
        *before* the window seed the initial presence; steps of unrelated
        nodes inside the window become constant base traffic.
    """

    def __init__(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        fixed_procs: Sequence[int] | np.ndarray,
        fixed_supersteps: Sequence[int] | np.ndarray,
        reassign: Sequence[int],
        window: tuple[int, int],
        context_comm: Iterable[CommStep] | None = (),
    ) -> None:
        self.dag = dag
        self.machine = machine
        self.fixed_procs = np.asarray(fixed_procs, dtype=np.int64)
        self.fixed_supersteps = np.asarray(fixed_supersteps, dtype=np.int64)
        self.reassign = list(dict.fromkeys(int(v) for v in reassign))
        self.window = (int(window[0]), int(window[1]))
        if self.window[0] < 0 or self.window[1] < self.window[0]:
            raise SolverError(f"invalid superstep window {window}")
        #: the context's ``(node, source, target, superstep)`` columns
        self.context_columns = (
            lazy_transfers(dag, self.fixed_procs, self.fixed_supersteps)
            if context_comm is None
            else comm_columns(list(context_comm))
        )

        # shared per-instance arrays, hoisted out of the model build: the
        # reassign mask, the CSR neighbour gathers, the boundary-predecessor
        # set and the node -> model-position map depend only on (dag,
        # reassign), so repeated ``build_model`` calls (and the context
        # validation below) reuse them instead of reallocating per build
        self._reassign_arr = np.asarray(self.reassign, dtype=_INT)
        self._reassign_mask = np.zeros(dag.num_nodes, dtype=bool)
        self._reassign_mask[self._reassign_arr] = True
        self._pred_flat, self._pred_offsets = gather_rows(
            dag.pred_indptr, dag.pred_indices, self._reassign_arr
        )
        self._succ_flat, self._succ_offsets = gather_rows(
            dag.succ_indptr, dag.succ_indices, self._reassign_arr
        )
        # boundary predecessors: fixed nodes feeding the reassigned ones, in
        # first-occurrence order over the CSR predecessor slices
        outside_preds = self._pred_flat[~self._reassign_mask[self._pred_flat]]
        if outside_preds.size:
            _, first = np.unique(outside_preds, return_index=True)
            self._boundary = outside_preds[np.sort(first)]
        else:
            self._boundary = np.empty(0, dtype=_INT)
        self._model_nodes = np.concatenate((self._reassign_arr, self._boundary))
        self._model_pos = np.full(dag.num_nodes, -1, dtype=_INT)
        self._model_pos[self._model_nodes] = np.arange(
            self._model_nodes.size, dtype=_INT
        )
        self._validate_context()

    # ------------------------------------------------------------------ #
    def _in_model_mask(self, nodes: np.ndarray) -> np.ndarray:
        return self._reassign_mask[nodes]

    def _validate_context(self) -> None:
        """Check the structural assumptions the formulation relies on.

        Vectorized over the reassigned nodes' CSR neighbour slices: fixed
        predecessors must be assigned before the window, fixed successors
        after it (or left unassigned).
        """
        if not self.reassign:
            return
        s_lo, s_hi = self.window
        nodes = self._reassign_arr

        preds, pred_offsets = self._pred_flat, self._pred_offsets
        outside = ~self._in_model_mask(preds)
        bad = outside & (
            (self.fixed_supersteps[preds] < 0) | (self.fixed_supersteps[preds] >= s_lo)
        )
        if bad.any():
            at = int(np.argmax(bad))
            v = int(nodes[np.searchsorted(pred_offsets, at, side="right") - 1])
            u = int(preds[at])
            raise SolverError(
                f"fixed predecessor {u} of reassigned node {v} must be "
                f"assigned before the window (superstep {int(self.fixed_supersteps[u])})"
            )

        succs, succ_offsets = self._succ_flat, self._succ_offsets
        outside = ~self._in_model_mask(succs)
        steps = self.fixed_supersteps[succs]
        bad = outside & (steps >= 0) & (steps <= s_hi)
        if bad.any():
            at = int(np.argmax(bad))
            v = int(nodes[np.searchsorted(succ_offsets, at, side="right") - 1])
            w = int(succs[at])
            raise SolverError(
                f"fixed successor {w} of reassigned node {v} must be "
                "assigned after the window or left unassigned"
            )

    # ------------------------------------------------------------------ #
    def build_model(self) -> tuple[MilpProblem, np.ndarray]:
        """Assemble the MILP from batched coefficient arrays.

        Returns the problem plus the ``(nr, P, W)`` ``comp`` variable index
        block used to extract the assignment.  Exposed separately from
        :meth:`solve` so the differential test can compare the emitted model
        against the retained seed dict builder
        (``build_window_model_reference`` in ``tests/oracles/window_ilp.py``).
        """
        dag, machine = self.dag, self.machine
        s_lo, s_hi = self.window
        W = s_hi - s_lo + 1
        P = machine.num_procs
        nr = len(self.reassign)

        # hoisted in __init__: reassign array/mask, neighbour gathers,
        # boundary predecessors and the node -> model-position map
        reassign_arr = self._reassign_arr
        pred_flat, pred_offsets = self._pred_flat, self._pred_offsets
        boundary = self._boundary
        nb = boundary.size
        model_nodes = self._model_nodes
        n_model = nr + nb
        model_pos = self._model_pos

        problem = MilpProblem(name="window_ilp")

        # --- variable blocks (index arithmetic replaces per-var dicts) --- #
        comp0 = problem.add_binary_block(nr * P * W)
        comp_idx = comp0 + np.arange(nr * P * W, dtype=_INT).reshape(nr, P, W)

        # send[v, p1, p2, s]: reassigned nodes get all P sources, boundary
        # nodes only their fixed processor; -1 marks non-existent slots
        send_idx = np.full((n_model, P, P, W), -1, dtype=_INT)
        send_r0 = problem.add_binary_block(nr * P * (P - 1) * W)
        if nr and P > 1:
            block = send_r0 + np.arange(nr * P * (P - 1) * W, dtype=_INT).reshape(
                nr, P, P - 1, W
            )
            for p1 in range(P):
                others = [p2 for p2 in range(P) if p2 != p1]
                send_idx[:nr, p1, others, :] = block[:, p1]
        send_b0 = problem.add_binary_block(nb * (P - 1) * W)
        if nb and P > 1:
            block = send_b0 + np.arange(nb * (P - 1) * W, dtype=_INT).reshape(
                nb, P - 1, W
            )
            for bi in range(nb):
                p1 = int(self.fixed_procs[boundary[bi]])
                others = [p2 for p2 in range(P) if p2 != p1]
                send_idx[nr + bi, p1, others, :] = block[bi]

        pres0_var = problem.add_continuous_block(n_model * P * W, 0.0, 1.0)
        pres_idx = pres0_var + np.arange(n_model * P * W, dtype=_INT).reshape(
            n_model, P, W
        )

        work_var0 = problem.add_continuous_block(W, 0.0, np.inf, objective=1.0)
        comm_var0 = problem.add_continuous_block(W, 0.0, np.inf, objective=machine.g)
        work_idx = work_var0 + np.arange(W, dtype=_INT)
        comm_idx = comm_var0 + np.arange(W, dtype=_INT)

        # --- fixed context constants ------------------------------------ #
        init_pres = self._initial_presence_table()
        base_work, base_send, base_recv = self._base_loads()

        # --- (1) every reassigned node computed exactly once ------------- #
        problem.add_rows(
            np.repeat(np.arange(nr, dtype=_INT), P * W),
            comp_idx.ravel(),
            np.ones(nr * P * W),
            1.0,
            1.0,
            num_rows=nr,
        )

        # --- (2) presence recurrence ------------------------------------- #
        # one row per (model node, processor, window step); si is the last
        # axis of pres_idx, so "previous step" is plain index - 1
        n_rows = n_model * P * W
        rows_parts = [np.arange(n_rows, dtype=_INT)]
        cols_parts = [pres_idx.ravel()]
        vals_parts = [np.ones(n_rows)]
        if W > 1:
            prev_rows = np.arange(n_rows, dtype=_INT).reshape(n_model, P, W)[:, :, 1:]
            rows_parts.append(prev_rows.ravel())
            cols_parts.append((pres_idx[:, :, 1:] - 1).ravel())
            vals_parts.append(np.full(prev_rows.size, -1.0))
            incoming = send_idx.transpose(0, 2, 1, 3)  # (node, p2, p1, si)
            mi, p2, p1, si = np.nonzero(incoming[:, :, :, : W - 1] >= 0)
            rows_parts.append((mi * P + p2) * W + si + 1)
            cols_parts.append(incoming[mi, p2, p1, si])
            vals_parts.append(np.full(mi.size, -1.0))
        rows_parts.append(np.arange(nr * P * W, dtype=_INT))
        cols_parts.append(comp_idx.ravel())
        vals_parts.append(np.full(nr * P * W, -1.0))
        upper = np.zeros((n_model, P, W))
        upper[:, :, 0] = init_pres
        problem.add_rows(
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
            -np.inf,
            upper.ravel(),
            num_rows=n_rows,
        )

        # --- (3) sending requires presence on the source ----------------- #
        mi, p1, p2, si = np.nonzero(send_idx >= 0)
        n_send = mi.size
        problem.add_rows(
            np.tile(np.arange(n_send, dtype=_INT), 2),
            np.concatenate((send_idx[mi, p1, p2, si], pres_idx[mi, p1, si])),
            np.concatenate((np.ones(n_send), -np.ones(n_send))),
            -np.inf,
            0.0,
            num_rows=n_send,
        )

        # --- (4) precedence: computing v needs every predecessor --------- #
        in_model = model_pos[pred_flat] >= 0
        edge_v = np.repeat(np.arange(nr, dtype=_INT), np.diff(pred_offsets))[in_model]
        edge_u = model_pos[pred_flat[in_model]]
        n_edges = edge_v.size
        if n_edges:
            rows = np.arange(n_edges * P * W, dtype=_INT)
            problem.add_rows(
                np.tile(rows, 2),
                np.concatenate(
                    (comp_idx[edge_v].ravel(), pres_idx[edge_u].ravel())
                ),
                np.concatenate(
                    (np.ones(n_edges * P * W), -np.ones(n_edges * P * W))
                ),
                -np.inf,
                0.0,
                num_rows=n_edges * P * W,
            )

        # --- (5) values needed by fixed successors after the window ------ #
        succ_flat, succ_offsets = self._succ_flat, self._succ_offsets
        succ_v = np.repeat(np.arange(nr, dtype=_INT), np.diff(succ_offsets))
        fixed_after = (model_pos[succ_flat] < 0) & (
            self.fixed_supersteps[succ_flat] > s_hi
        )
        if fixed_after.any():
            need_v = succ_v[fixed_after]
            need_q = self.fixed_procs[succ_flat[fixed_after]]
            pairs = np.unique(need_v * _INT(P) + need_q)
            need_v, need_q = pairs // P, pairs % P
            k = need_v.size
            # pres[v, q, s_hi] + Σ_p1 send[v, p1, q, s_hi] >= 1
            sends = send_idx[need_v, :, need_q, W - 1]  # (k, P)
            rk, pk = np.nonzero(sends >= 0)
            problem.add_rows(
                np.concatenate((np.arange(k, dtype=_INT), rk)),
                np.concatenate((pres_idx[need_v, need_q, W - 1], sends[rk, pk])),
                np.ones(k + rk.size),
                1.0,
                np.inf,
                num_rows=k,
            )

        # --- (6) work maxima --------------------------------------------- #
        rows_grid = np.arange(W * P, dtype=_INT)  # row (si, p) = si * P + p
        comp_rows = np.tile(
            (np.arange(P, dtype=_INT)[:, None] + np.arange(W, dtype=_INT)[None, :] * P)
            .ravel(),
            nr,
        )
        problem.add_rows(
            np.concatenate((rows_grid, comp_rows)),
            np.concatenate(
                (np.repeat(work_idx, P), comp_idx.ravel())
            ),
            np.concatenate(
                (
                    np.ones(W * P),
                    -np.repeat(dag.work_weights[reassign_arr], P * W),
                )
            ),
            base_work.ravel(),
            np.inf,
            num_rows=W * P,
        )

        # --- (7) communication maxima (send side and receive side) ------- #
        volumes = dag.comm_weights[model_nodes[mi]] * machine.numa[p1, p2]
        rows_comm = np.arange(W * P, dtype=_INT) * 2  # send side; recv side is +1
        lower = np.empty(W * P * 2)
        lower[0::2] = base_send.ravel()
        lower[1::2] = base_recv.ravel()
        problem.add_rows(
            np.concatenate(
                (
                    rows_comm,
                    rows_comm + 1,
                    (si * P + p1) * 2,
                    (si * P + p2) * 2 + 1,
                )
            ),
            np.concatenate(
                (
                    np.repeat(comm_idx, P),
                    np.repeat(comm_idx, P),
                    send_idx[mi, p1, p2, si],
                    send_idx[mi, p1, p2, si],
                )
            ),
            np.concatenate(
                (np.ones(W * P), np.ones(W * P), -volumes, -volumes)
            ),
            lower,
            np.inf,
            num_rows=W * P * 2,
        )

        return problem, comp_idx

    def solve(
        self,
        time_limit: float | None = None,
        node_limit: int | None = None,
        memo: dict[bytes, MilpSolution] | None = None,
    ) -> WindowIlpResult:
        """Build the batched model and run the backend.

        ``node_limit`` is the deterministic branch-and-bound cap (see
        :meth:`MilpProblem.solve`); the ILP improvers thread it through from
        :class:`repro.schedulers.Budget.ilp_node_limit`.

        ``memo`` maps :meth:`MilpProblem.key` to the solution of a model
        already solved.  The model is in window-local coordinates, so two
        windows with the same local structure build the same model: on a
        hit the stored solution is reused and HiGHS is not called.  Every
        new solution is stored except a :data:`~.backend.TIME_LIMIT` stop,
        which depends on the clock.  The ILP stages pass one memo per
        stage call and never keep it longer.
        """
        s_lo, s_hi = self.window
        W = s_hi - s_lo + 1
        P = self.machine.num_procs
        nr = len(self.reassign)
        problem, comp_idx = self.build_model()
        if memo is None:
            solution = problem.solve(time_limit=time_limit, node_limit=node_limit)
        else:
            key = problem.key(node_limit)
            solution = memo.get(key)
            if solution is None:
                solution = problem.solve(time_limit=time_limit, node_limit=node_limit)
                if solution.stop != TIME_LIMIT:
                    memo[key] = solution
        if not solution.feasible:
            return WindowIlpResult(False, {}, {}, float("inf"), solution.message)

        chosen = solution.values[comp_idx.reshape(nr, P * W)] > 0.5
        new_procs: dict[int, int] = {}
        new_steps: dict[int, int] = {}
        for vi, v in enumerate(self.reassign):
            slots = np.flatnonzero(chosen[vi])
            if slots.size:
                p, s_off = divmod(int(slots[0]), W)
                new_procs[v] = p
                new_steps[v] = s_lo + s_off
        missing = [v for v in self.reassign if v not in new_procs]
        if missing:
            return WindowIlpResult(
                False, {}, {}, float("inf"), f"nodes without assignment: {missing}"
            )
        return WindowIlpResult(True, new_procs, new_steps, solution.objective, solution.message)

    # ------------------------------------------------------------------ #
    def _initial_presence_table(self) -> np.ndarray:
        """Dense ``(n_model, P)`` presence constants at the window start."""
        s_lo, _ = self.window
        nr = len(self.reassign)
        boundary, model_pos = self._boundary, self._model_pos
        init = np.zeros((nr + boundary.size, self.machine.num_procs))
        if boundary.size:
            init[nr + np.arange(boundary.size), self.fixed_procs[boundary]] = 1.0
        node, _, target, phase = self.context_columns
        pos = model_pos[node]
        boundary_steps = (pos >= nr) & (phase < s_lo)
        init[pos[boundary_steps], target[boundary_steps]] = 1.0
        return init

    def _base_loads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constant work/send/recv loads inside the window from nodes outside the model.

        Dense ``(W, P)`` tables, filled with vectorized scatters over the
        whole assignment arrays instead of a per-node Python sweep.
        """
        s_lo, s_hi = self.window
        W = s_hi - s_lo + 1
        P = self.machine.num_procs
        base_work = np.zeros((W, P))
        base_send = np.zeros((W, P))
        base_recv = np.zeros((W, P))

        model_pos = self._model_pos
        reassign_mask = self._reassign_mask
        steps = self.fixed_supersteps
        in_window = (
            ~reassign_mask
            & (steps >= s_lo)
            & (steps <= s_hi)
            & (self.fixed_procs >= 0)
        )
        if in_window.any():
            nodes = np.flatnonzero(in_window)
            np.add.at(
                base_work,
                (steps[nodes] - s_lo, self.fixed_procs[nodes]),
                self.dag.work_weights[nodes],
            )

        # steps of reassigned and boundary nodes are modelled by send
        # variables; the others inside the window are scattered in their
        # context order
        node, source, target, phase = self.context_columns
        fixed = (model_pos[node] < 0) & (phase >= s_lo) & (phase <= s_hi)
        node, source, target = node[fixed], source[fixed], target[fixed]
        row = phase[fixed] - s_lo
        volume = self.dag.comm_weights[node] * self.machine.numa[source, target]
        np.add.at(base_send, (row, source), volume)
        np.add.at(base_recv, (row, target), volume)
        return base_work, base_send, base_recv
