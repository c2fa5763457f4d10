"""The :class:`BspSchedule` container tying together assignment, ``Γ`` and costs.

A BSP schedule consists of the processor assignment ``π``, the superstep
assignment ``τ`` and a communication schedule ``Γ`` (paper Section 3.2).
Most algorithms in the framework construct only ``(π, τ)`` and rely on the
implicit *lazy* communication schedule; :class:`BspSchedule` therefore
accepts ``comm_schedule=None``.  Such a schedule is validated, costed and
compacted from the lazy transfer columns of
:func:`~repro.core.comm.lazy_transfers`; the lazy ``Γ`` itself is built only
when :attr:`BspSchedule.comm_schedule` is read.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .comm import (
    CommStep,
    CommWindow,
    lazy_comm_schedule,
    lazy_transfers,
    required_transfers,
)
from .cost import CostBreakdown, evaluate_cost
from .dag import ComputationalDAG
from .exceptions import ScheduleError
from .machine import BspMachine
from .validation import schedule_violations, validate_schedule

__all__ = ["BspSchedule"]


class BspSchedule:
    """A (possibly lazy-communication) BSP schedule of a DAG on a machine.

    Parameters
    ----------
    dag, machine:
        The problem instance.
    procs:
        Sequence of processor indices ``π(v)`` for every node.
    supersteps:
        Sequence of superstep indices ``τ(v)`` for every node.
    comm_schedule:
        Explicit communication schedule ``Γ``; ``None`` means "use the lazy
        communication schedule derived from ``(π, τ)``".
    validate:
        When true (default), the schedule is validated on construction.
    """

    def __init__(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        procs: Sequence[int] | np.ndarray,
        supersteps: Sequence[int] | np.ndarray,
        comm_schedule: Iterable[CommStep] | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.dag = dag
        self.machine = machine
        self._procs = np.asarray(procs, dtype=np.int64).copy()
        self._supersteps = np.asarray(supersteps, dtype=np.int64).copy()
        if self._procs.shape != (dag.num_nodes,) or self._supersteps.shape != (
            dag.num_nodes,
        ):
            raise ScheduleError(
                f"assignment arrays must have length {dag.num_nodes}; got "
                f"{self._procs.shape} and {self._supersteps.shape}"
            )
        self._explicit_comm = (
            None if comm_schedule is None else frozenset(comm_schedule)
        )
        self._lazy_cache: frozenset[CommStep] | None = None
        self._cost_cache: CostBreakdown | None = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def trivial(cls, dag: ComputationalDAG, machine: BspMachine) -> "BspSchedule":
        """The trivial schedule: every node on processor 0 in superstep 0.

        This is the "assign everything to one processor" baseline the paper
        compares against in the communication-dominated regime (§7.3).
        """
        n = dag.num_nodes
        return cls(dag, machine, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    @classmethod
    def from_mappings(
        cls,
        dag: ComputationalDAG,
        machine: BspMachine,
        proc_of: Mapping[int, int],
        superstep_of: Mapping[int, int],
        comm_schedule: Iterable[CommStep] | None = None,
    ) -> "BspSchedule":
        """Build a schedule from node->processor and node->superstep mappings."""
        procs = np.array([proc_of[v] for v in dag.nodes()], dtype=np.int64)
        steps = np.array([superstep_of[v] for v in dag.nodes()], dtype=np.int64)
        return cls(dag, machine, procs, steps, comm_schedule)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def procs(self) -> np.ndarray:
        """Processor assignment ``π`` (read-only view)."""
        view = self._procs.view()
        view.flags.writeable = False
        return view

    @property
    def supersteps(self) -> np.ndarray:
        """Superstep assignment ``τ`` (read-only view)."""
        view = self._supersteps.view()
        view.flags.writeable = False
        return view

    def proc_of(self, v: int) -> int:
        """Processor assigned to node ``v``."""
        return int(self._procs[v])

    def superstep_of(self, v: int) -> int:
        """Superstep assigned to node ``v``."""
        return int(self._supersteps[v])

    @property
    def num_supersteps(self) -> int:
        """Number of supersteps spanned by the schedule (including ``Γ``)."""
        max_s = int(self._supersteps.max(initial=-1))
        if self._explicit_comm:
            max_s = max(max_s, max(s.superstep for s in self._explicit_comm))
        return max_s + 1

    @property
    def uses_lazy_comm(self) -> bool:
        """Whether the communication schedule is the implicit lazy one."""
        return self._explicit_comm is None

    @property
    def comm_schedule(self) -> frozenset[CommStep]:
        """The communication schedule ``Γ`` (lazy one derived if not explicit)."""
        if self._explicit_comm is not None:
            return self._explicit_comm
        if self._lazy_cache is None:
            self._lazy_cache = lazy_comm_schedule(
                self.dag, self._procs, self._supersteps
            )
        return self._lazy_cache

    def comm_windows(self) -> list[CommWindow]:
        """Feasible windows of every required transfer for ``(π, τ)``."""
        return required_transfers(self.dag, self._procs, self._supersteps)

    def nodes_in_superstep(self, s: int, p: int | None = None) -> list[int]:
        """Nodes assigned to superstep ``s`` (optionally restricted to processor ``p``)."""
        mask = self._supersteps == s
        if p is not None:
            mask &= self._procs == p
        return [int(v) for v in np.nonzero(mask)[0]]

    # ------------------------------------------------------------------ #
    # validity and cost
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`ScheduleError` if the schedule is invalid."""
        validate_schedule(
            self.dag, self.machine, self._procs, self._supersteps, self._explicit_comm
        )

    def violations(self) -> list[str]:
        """Human-readable list of validity violations (empty if valid)."""
        return schedule_violations(
            self.dag, self.machine, self._procs, self._supersteps, self._explicit_comm
        )

    def is_valid(self) -> bool:
        """Whether the schedule satisfies all BSP validity conditions."""
        return not self.violations()

    def cost_breakdown(self) -> CostBreakdown:
        """Full cost decomposition (cached)."""
        if self._cost_cache is None:
            self._cost_cache = evaluate_cost(
                self.dag,
                self.machine,
                self._procs,
                self._supersteps,
                self._explicit_comm,
                num_supersteps=self.num_supersteps,
            )
        return self._cost_cache

    def cost(self) -> float:
        """Total schedule cost under the BSP(+NUMA) model."""
        return self.cost_breakdown().total

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def copy(self) -> "BspSchedule":
        """An independent copy of this schedule."""
        return BspSchedule(
            self.dag,
            self.machine,
            self._procs,
            self._supersteps,
            self._explicit_comm,
            validate=False,
        )

    def with_comm_schedule(self, comm_schedule: Iterable[CommStep]) -> "BspSchedule":
        """Copy of this schedule with an explicit communication schedule."""
        return BspSchedule(
            self.dag, self.machine, self._procs, self._supersteps, comm_schedule
        )

    def with_lazy_comm(self) -> "BspSchedule":
        """Copy of this schedule that uses the lazy communication schedule."""
        return BspSchedule(
            self.dag, self.machine, self._procs, self._supersteps, None, validate=False
        )

    def with_assignment(
        self,
        procs: Sequence[int] | np.ndarray,
        supersteps: Sequence[int] | np.ndarray,
        *,
        validate: bool = True,
    ) -> "BspSchedule":
        """New lazy-communication schedule with a different ``(π, τ)``."""
        return BspSchedule(
            self.dag, self.machine, procs, supersteps, None, validate=validate
        )

    def compacted(self) -> "BspSchedule":
        """Remove empty supersteps (renumber ``τ`` and ``Γ`` contiguously).

        Supersteps that contain neither computation nor communication are
        dropped; this never increases the cost (it removes latency terms).
        Only available for lazy-communication schedules or explicit ones, in
        both cases the communication schedule is remapped consistently.
        """
        if self._explicit_comm is None:
            phases = lazy_transfers(self.dag, self._procs, self._supersteps)[3]
        else:
            phases = np.array(
                [step.superstep for step in self._explicit_comm], dtype=np.int64
            )
        used = np.unique(np.concatenate((self._supersteps, phases)))
        new_steps = np.searchsorted(used, self._supersteps)
        new_comm = None
        if self._explicit_comm is not None:
            remap = dict(zip(used.tolist(), range(used.size)))
            new_comm = frozenset(
                CommStep(c.node, c.source, c.target, remap[c.superstep])
                for c in self._explicit_comm
            )
        return BspSchedule(self.dag, self.machine, self._procs, new_steps, new_comm)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Multi-line human readable description of the schedule."""
        breakdown = self.cost_breakdown()
        lines = [
            f"BspSchedule on {self.machine.describe()}: "
            f"{self.dag.num_nodes} nodes, {self.num_supersteps} supersteps",
            f"  total cost = {breakdown.total:.2f} "
            f"(work {breakdown.work:.2f}, comm {breakdown.comm:.2f}, "
            f"latency {breakdown.latency:.2f})",
        ]
        for s in range(self.num_supersteps):
            per_proc = [
                len(self.nodes_in_superstep(s, p)) for p in range(self.machine.num_procs)
            ]
            lines.append(
                f"  superstep {s}: nodes/proc {per_proc}, "
                f"work {breakdown.work_per_superstep[s]:.1f}, "
                f"h-relation {breakdown.comm_per_superstep[s]:.1f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"BspSchedule(n={self.dag.num_nodes}, P={self.machine.num_procs}, "
            f"supersteps={self.num_supersteps}, cost={self.cost():.2f})"
        )
