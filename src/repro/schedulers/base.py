"""Scheduler and improver base classes plus shared helpers.

Two kinds of algorithms make up the framework (paper Figure 3):

* :class:`Scheduler` — builds a BSP schedule from scratch for a
  ``(DAG, machine)`` instance (the baselines and initialisation heuristics);
* :class:`ScheduleImprover` — takes an existing schedule and returns one of
  equal or lower cost (local search, the ILP improvement methods and the
  communication-schedule optimisers).

Every algorithm accepts an optional budget.  Two regimes exist:

* :class:`TimeBudget` — a cooperative wall-clock allowance; algorithms
  check it inside their main loops, so runs remain deterministic apart
  from the point at which they stop.
* :class:`Budget` — the unified model of the service API: the wall-clock
  allowance plus the *deterministic* limits (``max_steps`` for the
  hill-climbing refiners, ``ilp_node_limit`` for the branch-and-bound
  solver).  A budget with ``seconds=None`` and only deterministic limits
  makes every algorithm reproducible bit-for-bit regardless of machine
  load — the regime the batched/parallel entry points rely on.

``Budget`` subclasses ``TimeBudget``, so every ``budget:`` parameter in the
framework accepts either; algorithms that understand the deterministic
limits read them via :func:`budget_limits`.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..core.dag import ComputationalDAG
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from ..core.wire import as_int

__all__ = [
    "Budget",
    "Scheduler",
    "ScheduleImprover",
    "TimeBudget",
    "best_schedule",
    "budget_limits",
]


@dataclass
class TimeBudget:
    """A cooperative wall-clock budget.

    ``TimeBudget(None)`` (or :meth:`unlimited`) never expires.  Algorithms
    call :meth:`expired` inside their main loops and stop gracefully once the
    budget is exhausted, always returning the best solution found so far.
    """

    seconds: float | None = None

    def __post_init__(self) -> None:
        self._start = time.perf_counter()

    @classmethod
    def unlimited(cls) -> "TimeBudget":
        """A budget that never expires."""
        return cls(None)

    def restart(self) -> None:
        """Restart the clock (useful when a budget object is reused)."""
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds elapsed since the budget was created or restarted."""
        return time.perf_counter() - self._start

    @property
    def remaining(self) -> float:
        """Seconds remaining (``inf`` for an unlimited budget)."""
        if self.seconds is None:
            return math.inf
        return max(0.0, self.seconds - self.elapsed)

    def expired(self) -> bool:
        """Whether the budget is exhausted."""
        return self.seconds is not None and self.elapsed >= self.seconds

    def fraction(self, ratio: float) -> "TimeBudget":
        """A fresh budget worth ``ratio`` of this budget's total allowance."""
        if self.seconds is None:
            return TimeBudget(None)
        return TimeBudget(self.seconds * ratio)


@dataclass
class Budget(TimeBudget):
    """The unified budget model: wall-clock plus deterministic limits.

    Parameters
    ----------
    seconds:
        Cooperative wall-clock allowance (``None`` = unlimited), exactly as
        in :class:`TimeBudget`.
    max_steps:
        Deterministic cap on *accepted* local-search moves per improver
        invocation (HC and HCcs honour it).
    ilp_node_limit:
        Deterministic cap on branch-and-bound nodes per ILP solve (threaded
        through :class:`~repro.schedulers.ilp.WindowIlp` and the ILP
        improvers down to the HiGHS backend).

    A budget whose only limits are deterministic (``seconds is None``)
    yields bit-identical runs regardless of machine load; this is what the
    service API's ``solve_many`` relies on for parallel == serial replay.
    """

    max_steps: int | None = None
    ilp_node_limit: int | None = None

    @property
    def deterministic(self) -> bool:
        """Whether the budget is free of wall-clock limits."""
        return self.seconds is None

    def started(self) -> "Budget":
        """A fresh copy with the clock restarted (for deserialized budgets)."""
        return Budget(
            seconds=self.seconds,
            max_steps=self.max_steps,
            ilp_node_limit=self.ilp_node_limit,
        )

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
        """Rebuild a budget from :meth:`to_dict` output."""
        seconds = data.get("seconds")
        max_steps = data.get("max_steps")
        node_limit = data.get("ilp_node_limit")
        return cls(
            seconds=None if seconds is None else float(seconds),
            max_steps=None if max_steps is None else as_int(max_steps, "max_steps"),
            ilp_node_limit=(
                None if node_limit is None else as_int(node_limit, "ilp_node_limit")
            ),
        )


def budget_limits(budget: TimeBudget | None) -> tuple[int | None, int | None]:
    """The ``(max_steps, ilp_node_limit)`` carried by a budget, if any.

    Plain :class:`TimeBudget` objects (and ``None``) carry no deterministic
    limits; algorithm code calls this instead of type-sniffing inline.
    """
    if isinstance(budget, Budget):
        return budget.max_steps, budget.ilp_node_limit
    return None, None


class Scheduler(ABC):
    """Builds a BSP schedule for a DAG on a machine."""

    #: Short name used in reports, tables and the registry.
    name: str = "scheduler"

    @abstractmethod
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: TimeBudget | None = None,
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
        budget: TimeBudget | None = None,
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
