"""Name-based registry of schedulers (baselines, heuristics and pipelines).

The service API and the examples refer to schedulers by the short names
used throughout the paper (``cilk``, ``hdagg``, ``bsp_greedy``,
``framework``, ``multilevel``, ...).  The canonical construction path is
the declarative :class:`repro.api.SchedulerSpec` (registry name + validated
params); :func:`create_scheduler` is retained as a thin back-compat shim
over it.
"""

from __future__ import annotations

from typing import Callable

from .base import Scheduler
from .bsp_greedy import BspGreedyScheduler
from .cilk import CilkScheduler
from .hdagg import HDaggScheduler
from .ilp import IlpInitScheduler
from .listsched import BlEstScheduler, EtfScheduler
from .pipeline import MultilevelPipeline, SchedulingPipeline
from .source_heuristic import SourceScheduler
from .trivial import RoundRobinScheduler, TrivialScheduler

__all__ = ["SCHEDULER_FACTORIES", "available_schedulers", "create_scheduler"]

SCHEDULER_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "trivial": TrivialScheduler,
    "round_robin": RoundRobinScheduler,
    "cilk": CilkScheduler,
    "bl_est": BlEstScheduler,
    "etf": EtfScheduler,
    "hdagg": HDaggScheduler,
    "bsp_greedy": BspGreedyScheduler,
    "source": SourceScheduler,
    "ilp_init": IlpInitScheduler,
    "framework": SchedulingPipeline,
    "framework_heuristics": SchedulingPipeline.heuristics_only,
    "multilevel": MultilevelPipeline,
}


def available_schedulers() -> list[str]:
    """Sorted list of registered scheduler names."""
    return sorted(SCHEDULER_FACTORIES)


def create_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by its registry name (back-compat shim).

    Delegates to :class:`repro.api.SchedulerSpec`, which validates the
    parameters against the factory signature before construction.  New code
    should build specs directly — they serialise, fingerprint and travel
    through :class:`repro.api.SchedulingService`.
    """
    from ..api.spec import SchedulerSpec  # deferred: the spec layer sits above

    return SchedulerSpec(name, kwargs).build()
