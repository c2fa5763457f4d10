"""BSP(+NUMA) cost model (paper Section 3.3 and 3.4).

The cost of superstep ``s`` is

``C(s) = C_work(s) + g * C_comm(s) + ℓ``

where

* ``C_work(s)`` is the maximum total work assigned to any processor in the
  computation phase of ``s``,
* ``C_comm(s)`` is the h-relation cost of the communication phase: the
  maximum over processors of the larger of its total *send* and *receive*
  volume, every transferred value weighted by ``c(v) * λ[p1][p2]``,
* ``ℓ`` is the per-superstep latency.

The total schedule cost is the sum over all supersteps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .comm import CommStep, comm_columns, lazy_transfers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dag import ComputationalDAG
    from .machine import BspMachine

__all__ = ["CostBreakdown", "evaluate_cost", "work_matrix", "comm_matrices"]


@dataclass(frozen=True)
class CostBreakdown:
    """Full cost decomposition of a BSP schedule.

    Attributes
    ----------
    work:
        Total work cost (sum over supersteps of the per-superstep maxima).
    comm:
        Total communication cost already multiplied by ``g``.
    latency:
        Total latency cost ``ℓ * num_supersteps``.
    work_per_superstep, comm_per_superstep:
        Per-superstep components (``comm_per_superstep`` is the raw
        h-relation value, *not* multiplied by ``g``).
    """

    work: float
    comm: float
    latency: float
    work_per_superstep: tuple[float, ...]
    comm_per_superstep: tuple[float, ...]

    @property
    def total(self) -> float:
        """Total schedule cost."""
        return self.work + self.comm + self.latency

    @property
    def num_supersteps(self) -> int:
        """Number of supersteps the breakdown covers."""
        return len(self.work_per_superstep)

    def __float__(self) -> float:
        return self.total


def work_matrix(
    dag: "ComputationalDAG",
    num_procs: int,
    num_supersteps: int,
    procs: np.ndarray,
    supersteps: np.ndarray,
) -> np.ndarray:
    """``(num_supersteps, num_procs)`` matrix of per-processor work per superstep."""
    work = np.zeros((num_supersteps, num_procs), dtype=np.float64)
    np.add.at(work, (supersteps, procs), dag.work_weights)
    return work


def comm_matrices(
    dag: "ComputationalDAG",
    machine: "BspMachine",
    num_supersteps: int,
    comm_schedule: Iterable[CommStep],
) -> tuple[np.ndarray, np.ndarray]:
    """Send and receive volume matrices, shape ``(num_supersteps, P)`` each.

    Every communication step ``(v, p1, p2, s)`` contributes
    ``c(v) * λ[p1][p2]`` to ``send[s, p1]`` and ``recv[s, p2]``.  The steps
    are scattered in their iteration order, so every cell sums its
    transfers in the same order as a loop over ``comm_schedule`` would.
    """
    return _traffic(dag, machine, num_supersteps, *comm_columns(list(comm_schedule)))


def _traffic(
    dag: "ComputationalDAG",
    machine: "BspMachine",
    num_supersteps: int,
    node: np.ndarray,
    source: np.ndarray,
    target: np.ndarray,
    phase: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Send and receive matrices of the transfer columns, scattered in row order.

    ``np.add.at`` is unbuffered: a cell hit by several rows adds them one
    at a time in row order, starting from ``0.0``.
    """
    send = np.zeros((num_supersteps, machine.num_procs), dtype=np.float64)
    recv = np.zeros((num_supersteps, machine.num_procs), dtype=np.float64)
    volume = dag.comm_weights[node] * machine.numa[source, target]
    np.add.at(send, (phase, source), volume)
    np.add.at(recv, (phase, target), volume)
    return send, recv


def evaluate_cost(
    dag: "ComputationalDAG",
    machine: "BspMachine",
    procs: np.ndarray,
    supersteps: np.ndarray,
    comm_schedule: Iterable[CommStep] | None,
    num_supersteps: int | None = None,
) -> CostBreakdown:
    """Evaluate the full BSP(+NUMA) cost of an assignment plus ``Γ``.

    ``comm_schedule=None`` costs the lazy communication schedule of
    ``(π, τ)``, read as columns from :func:`~repro.core.comm.lazy_transfers`
    without building ``Γ``; an explicit ``Γ`` is costed in its iteration
    order.  ``num_supersteps`` defaults to one more than the largest
    superstep index appearing in either the assignment or the communication
    schedule.

    Raises
    ------
    ScheduleError
        If ``comm_schedule`` is ``None`` and ``(π, τ)`` has no lazy
        communication schedule.
    """
    procs = np.asarray(procs, dtype=np.int64)
    supersteps = np.asarray(supersteps, dtype=np.int64)
    if comm_schedule is None:
        columns = lazy_transfers(dag, procs, supersteps)
    else:
        columns = comm_columns(list(comm_schedule))
    if num_supersteps is None:
        num_supersteps = int(max(supersteps.max(initial=-1), columns[3].max(initial=-1))) + 1
    if num_supersteps <= 0:
        return CostBreakdown(0.0, 0.0, 0.0, (), ())

    work = work_matrix(dag, machine.num_procs, num_supersteps, procs, supersteps)
    send, recv = _traffic(dag, machine, num_supersteps, *columns)

    work_per_step = work.max(axis=1)
    comm_per_step = np.maximum(send, recv).max(axis=1)

    total_work = float(work_per_step.sum())
    total_comm = float(machine.g * comm_per_step.sum())
    total_latency = float(machine.latency * num_supersteps)
    return CostBreakdown(
        work=total_work,
        comm=total_comm,
        latency=total_latency,
        work_per_superstep=tuple(float(x) for x in work_per_step),
        comm_per_superstep=tuple(float(x) for x in comm_per_step),
    )
