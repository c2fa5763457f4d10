"""Definition-level validity and cost of a BSP(+NUMA) schedule.

Written with plain Python loops over the paper's definitions (Section 3),
sharing no code with ``repro.core.cost``, ``repro.core.comm`` or
``repro.core.validation``, so that it can referee them:

    cost = Σ_s [ max_p work(s, p)
                 + g · max_p max(send(s, p), recv(s, p))
                 + ℓ ]

where every transfer ``(v, p1, p2, s)`` of Γ adds ``c(v) · λ[p1][p2]`` to
``send(s, p1)`` and ``recv(s, p2)``, and the supersteps run from 0 to the
largest superstep used by τ or Γ.  Without an explicit Γ the lazy schedule
is used: a value needed on another processor ``q`` is sent from the
processor that computed it in the phase just before the first superstep
that needs it on ``q``.
"""

from __future__ import annotations

__all__ = ["comm_matrices", "definition_cost", "lazy_gamma", "violations"]


def lazy_gamma(
    edges: list[tuple[int, int]], procs: list[int], steps: list[int]
) -> list[tuple[int, int, int, int]]:
    """The lazy communication schedule of ``(π, τ)``."""
    first_need: dict[tuple[int, int], int] = {}
    for u, v in edges:
        target = procs[v]
        if procs[u] != target:
            key = (u, target)
            if key not in first_need or steps[v] < first_need[key]:
                first_need[key] = steps[v]
    return [(u, procs[u], q, need - 1) for (u, q), need in first_need.items()]


def violations(
    num_procs: int,
    edges: list[tuple[int, int]],
    procs: list[int],
    steps: list[int],
    gamma: list[tuple[int, int, int, int]],
) -> list[str]:
    """Broken validity rules of ``(π, τ, Γ)`` (empty when it is valid).

    Checks the assignment ranges, that every transfer sends a value its
    source holds by then, and that every edge's value is on its target's
    processor in time.  A value is on the processor that computes it from
    its own superstep on, and on a transfer's target from the superstep
    after the transfer's phase.
    """
    problems = []
    for v, (p, s) in enumerate(zip(procs, steps)):
        if not (0 <= p < num_procs and s >= 0):
            problems.append(f"node {v} assigned to ({p}, {s})")
    # earliest superstep from which each value is on each processor
    ready = {(v, p): s for v, (p, s) in enumerate(zip(procs, steps))}
    for v, p1, p2, s in sorted(gamma, key=lambda step: step[3]):
        if not (0 <= p1 < num_procs and 0 <= p2 < num_procs and s >= 0):
            problems.append(f"transfer {(v, p1, p2, s)} out of range")
        elif ready.get((v, p1), s + 1) > s:
            problems.append(f"transfer {(v, p1, p2, s)} sends a value {p1} lacks")
        elif ready.get((v, p2), s + 2) > s + 1:
            ready[(v, p2)] = s + 1
    for u, v in edges:
        if ready.get((u, procs[v]), steps[v] + 1) > steps[v]:
            problems.append(f"edge ({u}, {v}): value of {u} missing on {procs[v]}")
    return problems


def comm_matrices(
    comm: list[float],
    numa: list[list[float]],
    num_steps: int,
    gamma: list[tuple[int, int, int, int]],
) -> tuple[list[list[float]], list[list[float]]]:
    """Send and receive volume per ``[superstep][processor]``.

    One transfer at a time, in ``gamma``'s order, so that every cell sums
    its transfers in that order: the reference the vectorized
    ``repro.core.cost.comm_matrices`` must match bit for bit.
    """
    num_procs = len(numa)
    send = [[0.0] * num_procs for _ in range(num_steps)]
    recv = [[0.0] * num_procs for _ in range(num_steps)]
    for v, p1, p2, s in gamma:
        volume = comm[v] * numa[p1][p2]
        send[s][p1] += volume
        recv[s][p2] += volume
    return send, recv


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
    """BSP(+NUMA) cost of ``(π, τ, Γ)``."""
    num_steps = max([*steps, *(s for _, _, _, s in gamma)], default=-1) + 1
    num_procs = len(numa)
    load = [[0.0] * num_procs for _ in range(num_steps)]
    for v, (p, s) in enumerate(zip(procs, steps)):
        load[s][p] += work[v]
    send, recv = comm_matrices(comm, numa, num_steps, gamma)
    total = 0.0
    for s in range(num_steps):
        h = max(max(send[s][p], recv[s][p]) for p in range(num_procs))
        total += max(load[s]) + g * h + latency
    return total
