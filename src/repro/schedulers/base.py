"""Scheduler and improver base classes plus shared helpers.

Two kinds of algorithms make up the framework (paper Figure 3):

* :class:`Scheduler` — builds a BSP schedule from scratch for a
  ``(DAG, machine)`` instance (the baselines and initialisation heuristics);
* :class:`ScheduleImprover` — takes an existing schedule and returns one of
  equal or lower cost (local search, the ILP improvement methods and the
  communication-schedule optimisers).

Every algorithm accepts an optional :class:`Budget`: a cooperative
wall-clock allowance (``seconds``) plus two work caps, ``max_steps`` for the
hill-climbing refiners and ``ilp_node_limit`` for the branch-and-bound
solver.  Algorithms check the clock inside their main loops and read the caps
straight off the budget.  ``Budget()`` is the unlimited budget.
:meth:`Budget.fraction` scales the clock alone, so the caps reach every stage
a scheduler splits its budget into.  A budget with ``seconds=None`` adds no
clock of its own: when the work caps, not a configured stage clock, stop
every stage, a run is reproducible bit-for-bit regardless of machine load —
the regime the batched/parallel entry points rely on.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from ..core.wire import as_float, as_int

__all__ = [
    "Budget",
    "Scheduler",
    "ScheduleImprover",
    "best_schedule",
]


@dataclass
class Budget:
    """A cooperative wall-clock allowance plus deterministic work caps.

    Parameters
    ----------
    seconds:
        Wall-clock allowance (``None`` = unlimited).  Algorithms call
        :meth:`expired` inside their main loops and stop gracefully once it
        is exhausted, always returning the best solution found so far.
    max_steps:
        Deterministic cap on *accepted* local-search moves per improver
        invocation (HC and HCcs honour it).
    ilp_node_limit:
        Deterministic cap on branch-and-bound nodes per ILP solve; it
        overrides the ILP stages' own node limits (see :meth:`ilp_limits`).

    A budget whose only limits are work caps (``seconds is None``) never
    expires, so runs stopped by the caps are bit-identical regardless of
    machine load; this is what the service API's ``solve_many`` relies on
    for parallel == serial replay.
    """

    seconds: float | None = None
    max_steps: int | None = None
    ilp_node_limit: int | None = None

    def __post_init__(self) -> None:
        self._start = time.perf_counter()

    def started(self) -> "Budget":
        """A fresh copy with the clock restarted (for deserialized budgets)."""
        return replace(self)

    @property
    def elapsed(self) -> float:
        """Seconds elapsed since the budget was created."""
        return time.perf_counter() - self._start

    @property
    def remaining(self) -> float:
        """Seconds remaining (``inf`` without a wall-clock allowance)."""
        if self.seconds is None:
            return math.inf
        return max(0.0, self.seconds - self.elapsed)

    def expired(self) -> bool:
        """Whether the wall-clock allowance is exhausted."""
        return self.seconds is not None and self.elapsed >= self.seconds

    def fraction(self, ratio: float) -> "Budget":
        """A fresh budget with ``ratio`` of this budget's total seconds.

        The work caps pass through unchanged: they bound each invocation,
        not the sum over the stages a scheduler splits its budget into.
        """
        seconds = None if self.seconds is None else self.seconds * ratio
        return replace(self, seconds=seconds)

    def ilp_limits(
        self, time_limit: float | None, node_limit: int | None
    ) -> tuple[float | None, int | None]:
        """``(time_limit, node_limit)`` for one MILP solve of an ILP stage.

        ``time_limit`` and ``node_limit`` are the stage's own limits.  The
        solve gets no more than the remaining seconds, and the budget's node
        limit, when it has one, replaces the stage's.  A stage limit of
        ``0.0`` is a clock of its own, not "no clock".
        """
        if self.seconds is not None:
            remaining = self.remaining
            time_limit = remaining if time_limit is None else min(time_limit, remaining)
        if self.ilp_node_limit is not None:
            node_limit = self.ilp_node_limit
        return time_limit, node_limit

    def to_dict(self) -> dict:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "seconds": None if self.seconds is None else float(self.seconds),
            "max_steps": None if self.max_steps is None else int(self.max_steps),
            "ilp_node_limit": (
                None if self.ilp_node_limit is None else int(self.ilp_node_limit)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Budget":
        """Rebuild a budget from :meth:`to_dict` output.

        ``seconds`` must be a finite number and the caps integers; none of
        them may be negative.
        """
        readers = {"seconds": as_float, "max_steps": as_int, "ilp_node_limit": as_int}
        limits = {}
        for name, read in readers.items():
            value = data.get(name)
            if value is not None:
                value = read(value, name)
                if value < 0:
                    raise ValueError(f"{name} must be non-negative, got {value!r}")
            limits[name] = value
        return cls(**limits)


class Scheduler(ABC):
    """Builds a BSP schedule for a DAG on a machine."""

    #: Short name used in reports, tables and the registry.
    name: str = "scheduler"

    @abstractmethod
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        """Return a valid BSP schedule of ``dag`` on ``machine``."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


class ScheduleImprover(ABC):
    """Improves an existing BSP schedule without ever making it worse."""

    name: str = "improver"

    @abstractmethod
    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        """Return a schedule whose cost is at most that of ``schedule``."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


def best_schedule(*schedules: BspSchedule | None) -> BspSchedule:
    """The lowest-cost schedule among the given ones (``None`` entries skipped)."""
    candidates = [s for s in schedules if s is not None]
    if not candidates:
        raise ValueError("best_schedule requires at least one schedule")
    return min(candidates, key=lambda s: s.cost())
