"""Retained seed model builder for the superstep-window ILP.

:func:`build_window_model_reference` constructs the window MILP exactly the
way the pre-batching implementation did — per-variable ``add_binary`` calls
and per-constraint Python dicts over ``dag.predecessors`` / ``successors``
lists.  It exists purely as the ground truth the batched construction in
:meth:`repro.schedulers.ilp.window.WindowIlp.solve` is pinned against: the
differential test (``tests/test_ilp_methods.py``) asserts that both paths
emit the *same model* — variable count, objective, bounds, integrality,
row bounds and the sparse constraint matrix — on randomized instances.

Like :mod:`oracles.refiners`, this module is test surface, not part of
the production pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.comm import CommStep
from repro.schedulers.ilp.backend import MilpProblem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.ilp.window import WindowIlp

__all__ = ["build_window_model_reference"]


def build_window_model_reference(ilp: "WindowIlp") -> MilpProblem:
    """Build the window MILP with the seed per-dict construction."""
    dag, machine = ilp.dag, ilp.machine
    s_lo, s_hi = ilp.window
    window_steps = list(range(s_lo, s_hi + 1))
    num_procs = machine.num_procs
    reassign_set = set(ilp.reassign)

    # boundary predecessors: fixed nodes feeding the reassigned ones
    boundary: list[int] = []
    for v in ilp.reassign:
        for u in dag.predecessors(v):
            if u not in reassign_set and u not in boundary:
                boundary.append(u)
    model_nodes = ilp.reassign + boundary

    problem = MilpProblem(name="window_ilp")

    # --- variables -------------------------------------------------- #
    comp: dict[tuple[int, int, int], int] = {}
    for v in ilp.reassign:
        for p in range(num_procs):
            for s in window_steps:
                comp[(v, p, s)] = problem.add_binary()

    send: dict[tuple[int, int, int, int], int] = {}
    for v in model_nodes:
        sources = (
            range(num_procs) if v in reassign_set else [int(ilp.fixed_procs[v])]
        )
        for p1 in sources:
            for p2 in range(num_procs):
                if p1 == p2:
                    continue
                for s in window_steps:
                    send[(v, p1, p2, s)] = problem.add_binary()

    pres: dict[tuple[int, int, int], int] = {}
    for v in model_nodes:
        for p in range(num_procs):
            for s in window_steps:
                pres[(v, p, s)] = problem.add_continuous(0.0, 1.0)

    work_max = {
        s: problem.add_continuous(0.0, np.inf, objective=1.0) for s in window_steps
    }
    comm_max = {
        s: problem.add_continuous(0.0, np.inf, objective=machine.g)
        for s in window_steps
    }

    # --- fixed context constants ------------------------------------ #
    pres0 = _initial_presence(ilp, boundary, reassign_set)
    base_work, base_send, base_recv = _base_loads(ilp, reassign_set, set(boundary))

    # --- constraints -------------------------------------------------#
    # (1) every reassigned node computed exactly once
    for v in ilp.reassign:
        problem.add_eq(
            {comp[(v, p, s)]: 1.0 for p in range(num_procs) for s in window_steps},
            1.0,
        )

    # (2) presence recurrence
    for v in model_nodes:
        for p in range(num_procs):
            for s in window_steps:
                coefficients = {pres[(v, p, s)]: 1.0}
                constant = 0.0
                if s > s_lo:
                    coefficients[pres[(v, p, s - 1)]] = -1.0
                    for p1 in range(num_procs):
                        key = (v, p1, p, s - 1)
                        if key in send:
                            coefficients[send[key]] = -1.0
                else:
                    constant = pres0.get((v, p), 0.0)
                if v in reassign_set:
                    coefficients[comp[(v, p, s)]] = -1.0
                problem.add_le(coefficients, constant)

    # (3) sending requires presence on the source
    for (v, p1, p2, s), send_var in send.items():
        problem.add_le({send_var: 1.0, pres[(v, p1, s)]: -1.0}, 0.0)

    # (4) precedence: computing v needs every predecessor available
    boundary_set = set(boundary)
    for v in ilp.reassign:
        for u in dag.predecessors(v):
            if u not in reassign_set and u not in boundary_set:
                continue
            for p in range(num_procs):
                for s in window_steps:
                    problem.add_le(
                        {comp[(v, p, s)]: 1.0, pres[(u, p, s)]: -1.0}, 0.0
                    )

    # (5) values needed by fixed successors after the window must reach
    #     their processor by the end of the window
    for v in ilp.reassign:
        needed_procs = set()
        for w in dag.successors(v):
            if w in reassign_set:
                continue
            step = int(ilp.fixed_supersteps[w])
            if step > s_hi:
                needed_procs.add(int(ilp.fixed_procs[w]))
        for q in sorted(needed_procs):
            coefficients = {pres[(v, q, s_hi)]: 1.0}
            for p1 in range(num_procs):
                key = (v, p1, q, s_hi)
                if key in send:
                    coefficients[send[key]] = 1.0
            problem.add_ge(coefficients, 1.0)

    # (6) work maxima
    for s in window_steps:
        for p in range(num_procs):
            coefficients = {work_max[s]: 1.0}
            for v in ilp.reassign:
                coefficients[comp[(v, p, s)]] = -dag.work(v)
            problem.add_ge(coefficients, base_work.get((s, p), 0.0))

    # (7) communication maxima (send side and receive side)
    numa = machine.numa
    outgoing: dict[tuple[int, int], dict[int, float]] = {}
    incoming: dict[tuple[int, int], dict[int, float]] = {}
    for (v, p1, p2, step), send_var in send.items():
        volume = dag.comm(v) * numa[p1, p2]
        outgoing.setdefault((step, p1), {})[send_var] = -volume
        incoming.setdefault((step, p2), {})[send_var] = -volume
    for s in window_steps:
        for p in range(num_procs):
            send_coeffs = {comm_max[s]: 1.0, **outgoing.get((s, p), {})}
            recv_coeffs = {comm_max[s]: 1.0, **incoming.get((s, p), {})}
            problem.add_ge(send_coeffs, base_send.get((s, p), 0.0))
            problem.add_ge(recv_coeffs, base_recv.get((s, p), 0.0))

    return problem


def _context_steps(ilp: "WindowIlp") -> list[CommStep]:
    """The window's context steps, in context order."""
    return list(map(CommStep, *(column.tolist() for column in ilp.context_columns)))


def _initial_presence(
    ilp: "WindowIlp", boundary: list[int], reassign_set: set[int]
) -> dict[tuple[int, int], float]:
    """Presence constants at the start of the window for boundary predecessors."""
    s_lo, _ = ilp.window
    pres0: dict[tuple[int, int], float] = {}
    for u in boundary:
        pres0[(u, int(ilp.fixed_procs[u]))] = 1.0
    for step in _context_steps(ilp):
        if step.node in reassign_set:
            continue
        if step.node in set(boundary) and step.superstep < s_lo:
            pres0[(step.node, step.target)] = 1.0
    return pres0


def _base_loads(
    ilp: "WindowIlp", reassign_set: set[int], boundary_set: set[int]
) -> tuple[dict, dict, dict]:
    """Constant work/send/recv loads inside the window from nodes outside the model."""
    s_lo, s_hi = ilp.window
    base_work: dict[tuple[int, int], float] = {}
    base_send: dict[tuple[int, int], float] = {}
    base_recv: dict[tuple[int, int], float] = {}
    for v in ilp.dag.nodes():
        if v in reassign_set:
            continue
        step = int(ilp.fixed_supersteps[v])
        if s_lo <= step <= s_hi and int(ilp.fixed_procs[v]) >= 0:
            key = (step, int(ilp.fixed_procs[v]))
            base_work[key] = base_work.get(key, 0.0) + ilp.dag.work(v)
    numa = ilp.machine.numa
    for step in _context_steps(ilp):
        if step.node in reassign_set or step.node in boundary_set:
            continue
        if not s_lo <= step.superstep <= s_hi:
            continue
        volume = ilp.dag.comm(step.node) * numa[step.source, step.target]
        send_key = (step.superstep, step.source)
        recv_key = (step.superstep, step.target)
        base_send[send_key] = base_send.get(send_key, 0.0) + volume
        base_recv[recv_key] = base_recv.get(recv_key, 0.0) + volume
    return base_work, base_send, base_recv
