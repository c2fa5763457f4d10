"""Independent correctness oracle for scheduling results.

:func:`check` re-evaluates a result from its wire payload — the processor
assignment π, the superstep assignment τ and, when explicit, the
communication schedule Γ — against the *request's* instance and machine,
using the paper's cost definition written out with plain Python loops
(no code from ``repro.core.cost`` or ``repro.core.comm``):

    cost = Σ_s [ max_p work(s, p)
                 + g · max_p max(send(s, p), recv(s, p))
                 + ℓ ]

where every transfer ``(v, p1, p2, s)`` of Γ adds ``c(v) · λ[p1][p2]`` to
``send(s, p1)`` and ``recv(s, p2)``, and the supersteps run from 0 to the
largest superstep used by τ or Γ.  A payload without Γ uses the lazy
schedule: each value crossing to processor ``q`` is sent from the
processor that computed it in the phase just before the first superstep
that needs it on ``q``.

Validity is checked with ``repro``'s ``schedule_violations``.  Every
problem found is returned as a message; an empty list means the result is
correct.
"""

from __future__ import annotations

import math

from repro.core.comm import CommStep
from repro.core.validation import schedule_violations

__all__ = ["check", "definition_cost", "lazy_gamma"]

#: relative tolerance between the reported and the re-evaluated cost
REL_TOL = 1e-9


def lazy_gamma(
    edges: list[tuple[int, int]], procs: list[int], steps: list[int]
) -> list[tuple[int, int, int, int]]:
    """The lazy communication schedule of ``(π, τ)`` from its definition."""
    first_need: dict[tuple[int, int], int] = {}
    for u, v in edges:
        target = procs[v]
        if procs[u] != target:
            key = (u, target)
            if key not in first_need or steps[v] < first_need[key]:
                first_need[key] = steps[v]
    return [(u, procs[u], q, need - 1) for (u, q), need in first_need.items()]


def definition_cost(
    work: list[float],
    comm: list[float],
    numa: list[list[float]],
    g: float,
    latency: float,
    procs: list[int],
    steps: list[int],
    gamma: list[tuple[int, int, int, int]],
) -> float:
    """BSP(+NUMA) cost of ``(π, τ, Γ)`` straight from the paper's definition."""
    num_steps = max([*steps, *(s for _, _, _, s in gamma)], default=-1) + 1
    num_procs = len(numa)
    load = [[0.0] * num_procs for _ in range(num_steps)]
    send = [[0.0] * num_procs for _ in range(num_steps)]
    recv = [[0.0] * num_procs for _ in range(num_steps)]
    for v, (p, s) in enumerate(zip(procs, steps)):
        load[s][p] += work[v]
    for v, p1, p2, s in gamma:
        volume = comm[v] * numa[p1][p2]
        send[s][p1] += volume
        recv[s][p2] += volume
    total = 0.0
    for s in range(num_steps):
        h = max(max(send[s][p], recv[s][p]) for p in range(num_procs))
        total += max(load[s]) + g * h + latency
    return total


def check(dag, machine, payload: dict, reported_cost: float) -> list[str]:
    """Problems with one result payload (empty when the result is correct).

    ``dag`` and ``machine`` are the request's own instance and
    :class:`~repro.core.machine.BspMachine`; ``payload`` is the result's
    schedule wire dict and ``reported_cost`` the cost the result claims.
    """
    n = dag.num_nodes
    procs = [int(p) for p in payload["procs"]]
    steps = [int(s) for s in payload["supersteps"]]
    if len(procs) != n or len(steps) != n:
        return [f"assignment covers {len(procs)}/{len(steps)} of {n} nodes"]
    sources, targets = dag.edge_arrays()
    edges = list(zip(sources.tolist(), targets.tolist()))
    if "comm_schedule" in payload:
        gamma = [tuple(int(x) for x in step) for step in payload["comm_schedule"]]
    else:
        gamma = lazy_gamma(edges, procs, steps)

    problems = list(
        schedule_violations(
            dag, machine, procs, steps, [CommStep(*step) for step in gamma]
        )
    )
    if problems:
        return problems
    cost = definition_cost(
        dag.work_weights.tolist(),
        dag.comm_weights.tolist(),
        machine.numa.tolist(),
        float(machine.g),
        float(machine.latency),
        procs,
        steps,
        gamma,
    )
    for label, claimed in (("result", reported_cost), ("payload", payload.get("cost"))):
        if claimed is None or not math.isclose(cost, claimed, rel_tol=REL_TOL, abs_tol=REL_TOL):
            problems.append(f"{label} cost {claimed} != definition cost {cost}")
    return problems
