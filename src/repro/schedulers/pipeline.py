"""The combined scheduling framework (paper Figure 3 and Figure 4, Section 6).

The base pipeline

1. runs the initialisation heuristics (``BSPg`` and ``Source`` always,
   ``ILPinit`` only when the processor count is small, as tuned in
   Appendix C.1),
2. improves every initial schedule with the local search pair ``HC`` +
   ``HCcs`` and keeps the best result,
3. applies the ILP stage: ``ILPfull`` when the estimated model size permits,
   otherwise ``ILPpart``, followed by ``ILPcs``,
4. never accepts a stage output that increases the exactly evaluated cost.

Stage 2 starts once every initialiser has run: one
:meth:`~repro.schedulers.hill_climbing.HillClimbingImprover.improve_many`
climbs all initial schedules at once, on the sum of their HC clocks, and
``HCcs`` follows on each result.  Unless that clock binds, each schedule
gets the moves its own climb would make.

:class:`SchedulingPipeline` exposes both a plain :meth:`schedule` and
:meth:`schedule_with_stages`, which records the cost after every stage —
this is what the experiment harness uses to reproduce the ``Init`` /
``HCcs`` / ``ILP`` columns of the paper's figures and tables.

:class:`MultilevelPipeline` wraps the multilevel scheduler of Figure 4
around the same base pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.exceptions import ConfigurationError
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from ..core.wire import as_float, as_mapping
from .base import Budget, Scheduler, ScheduleImprover, best_schedule
from .bsp_greedy import BspGreedyScheduler
from .comm_hill_climbing import CommScheduleHillClimbing
from .hill_climbing import HillClimbingImprover
from .ilp import (
    IlpCommScheduleImprover,
    IlpFullImprover,
    IlpInitScheduler,
    IlpPartialImprover,
)
from .multilevel import MultilevelScheduler
from .source_heuristic import SourceScheduler

__all__ = [
    "MultilevelPipeline",
    "PipelineConfig",
    "PipelineResult",
    "SchedulingPipeline",
    "StageCosts",
]

_EPS = 1e-9

#: PipelineConfig fields that are on/off switches
_FLAGS = ("use_ilp", "use_comm_ilp", "use_full_ilp")
#: PipelineConfig fields in seconds; the fields in neither tuple are counts
_SECONDS = (
    "local_search_seconds",
    "ilp_full_seconds",
    "ilp_partial_seconds",
    "ilp_comm_seconds",
    "ilp_init_seconds",
)
#: PipelineConfig fields that may be ``None``: no clock, no cap
_OPTIONAL = _SECONDS + ("hc_max_steps", "ilp_node_limit")


def _is_count(value) -> bool:
    """A non-negative integer (booleans excluded)."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 0
    )


def _is_seconds(value) -> bool:
    """A finite non-negative number (booleans excluded)."""
    try:
        return as_float(value, "seconds") >= 0
    except (TypeError, ValueError):
        return False


@dataclass
class PipelineConfig:
    """Tunable knobs of the base pipeline.

    The defaults mirror the paper's setup at benchmark-friendly time limits;
    every limit can be raised to the paper's original values for full-scale
    runs.  Construction raises :class:`ConfigurationError` unless the flags
    are booleans, the clocks finite non-negative seconds or ``None``, and
    every other field (caps, passes, thresholds, seed) a non-negative
    integer, or ``None`` for the two optional caps.
    """

    #: apply ``ILPinit`` only when the machine has at most this many processors
    ilp_init_max_procs: int = 4
    #: use any ILP-based stage at all
    use_ilp: bool = True
    #: run the final communication-schedule ILP
    use_comm_ilp: bool = True
    #: run ``ILPfull`` when its estimated variable count is below its threshold
    use_full_ilp: bool = True
    #: wall-clock seconds of local search per initial schedule (paper:
    #: 300 s): the joint HC climb over all initial schedules gets 90 % of
    #: it per schedule, each HCcs run 10 %
    local_search_seconds: float | None = 5.0
    #: maximum full HC passes per local-search invocation
    hc_max_passes: int = 50
    #: optional cap on accepted HC moves per invocation (``None`` = until
    #: convergence); the experiment drivers thread a per-grid-point value
    #: through here for the huge-dataset runs
    hc_max_steps: int | None = None
    #: maximum HCcs passes per local-search invocation
    hccs_max_passes: int = 50
    #: wall-clock seconds for ILPfull (paper: 3600 s)
    ilp_full_seconds: float | None = 20.0
    #: wall-clock seconds per ILPpart window (paper: 180 s)
    ilp_partial_seconds: float | None = 10.0
    #: wall-clock seconds for ILPcs (paper: 300 s)
    ilp_comm_seconds: float | None = 10.0
    #: wall-clock seconds per ILPinit batch (paper: 120 s)
    ilp_init_seconds: float | None = 10.0
    #: variable-count thresholds (paper: 20 000 / 4 000 / 2 000)
    ilp_full_max_variables: int = 20000
    ilp_partial_max_variables: int = 4000
    ilp_init_max_variables: int = 2000
    #: deterministic branch-and-bound node cap for every ILP solve
    #: (``None`` = wall-clock limits only).  Setting this and clearing the
    #: ``ilp_*_seconds`` knobs makes the whole pipeline reproducible
    #: bit-for-bit regardless of machine load — the deterministic
    #: counterpart of the PR-4 ``hc_max_steps`` treatment.
    ilp_node_limit: int | None = None
    #: random seed forwarded to randomised components
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):
            name, value = spec.name, getattr(self, spec.name)
            if value is None and name in _OPTIONAL:
                continue
            if name in _FLAGS:
                ok, expected = isinstance(value, bool), "a boolean"
            elif name in _SECONDS:
                ok, expected = _is_seconds(value), "finite non-negative seconds"
            else:
                ok, expected = _is_count(value), "a non-negative integer"
            if not ok:
                if name in _OPTIONAL:
                    expected += " or None"
                raise ConfigurationError(
                    f"PipelineConfig.{name} must be {expected}, got {value!r}"
                )

    def to_dict(self) -> dict:
        """Plain JSON-compatible dict (the declarative wire form)."""
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Rebuild a config from :meth:`to_dict` output (unknown keys rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TypeError(
                f"unknown PipelineConfig field(s): {', '.join(unknown)}"
            )
        return cls(**data)

    @classmethod
    def fast(cls) -> "PipelineConfig":
        """Aggressively small time limits for quick benchmark/CI runs.

        The stage structure is unchanged; only the per-stage budgets shrink,
        so the benchmark harness reproduces the *shape* of the paper's
        results within seconds per instance.
        """
        return cls(
            local_search_seconds=0.5,
            ilp_full_seconds=3.0,
            ilp_partial_seconds=1.5,
            ilp_comm_seconds=1.5,
            ilp_init_seconds=1.5,
            ilp_full_max_variables=6000,
            ilp_partial_max_variables=2500,
            ilp_init_max_variables=1200,
        )


@dataclass
class StageCosts:
    """Costs recorded after the pipeline stages (one instance, one machine)."""

    initial: dict[str, float] = field(default_factory=dict)
    best_init: float = float("inf")
    after_local_search: float = float("inf")
    after_ilp_assignment: float = float("inf")
    after_comm_ilp: float = float("inf")

    @property
    def final(self) -> float:
        """Cost of the final schedule."""
        return self.after_comm_ilp

    def to_dict(self) -> dict:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "initial": {name: float(cost) for name, cost in self.initial.items()},
            "best_init": float(self.best_init),
            "after_local_search": float(self.after_local_search),
            "after_ilp_assignment": float(self.after_ilp_assignment),
            "after_comm_ilp": float(self.after_comm_ilp),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageCosts":
        """Rebuild stage costs from :meth:`to_dict` output."""
        initial = as_mapping(data.get("initial", {}), "initial")
        return cls(
            initial={str(k): float(v) for k, v in initial.items()},
            best_init=float(data["best_init"]),
            after_local_search=float(data["after_local_search"]),
            after_ilp_assignment=float(data["after_ilp_assignment"]),
            after_comm_ilp=float(data["after_comm_ilp"]),
        )


@dataclass
class PipelineResult:
    """Final schedule plus the per-stage cost trace."""

    schedule: BspSchedule
    stages: StageCosts


class SchedulingPipeline(Scheduler):
    """The base scheduling framework of Figure 3."""

    name = "framework"

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------------ #
    @classmethod
    def heuristics_only(cls, local_search_seconds: float | None = 5.0) -> "SchedulingPipeline":
        """Initialisers + local search only (the configuration used on the huge dataset)."""
        return cls(
            PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=local_search_seconds)
        )

    # ------------------------------------------------------------------ #
    def _initializers(self, machine: BspMachine) -> list[Scheduler]:
        config = self.config
        initializers: list[Scheduler] = [BspGreedyScheduler(), SourceScheduler()]
        if config.use_ilp and machine.num_procs <= config.ilp_init_max_procs:
            initializers.append(
                IlpInitScheduler(
                    max_variables=config.ilp_init_max_variables,
                    time_limit_per_batch=config.ilp_init_seconds,
                    node_limit=config.ilp_node_limit,
                )
            )
        return initializers

    def _local_search(self) -> tuple[ScheduleImprover, ScheduleImprover]:
        config = self.config
        return (
            HillClimbingImprover(
                max_passes=config.hc_max_passes, max_steps=config.hc_max_steps
            ),
            CommScheduleHillClimbing(max_passes=config.hccs_max_passes),
        )

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        return self.schedule_with_stages(dag, machine, budget).schedule

    def schedule_with_stages(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> PipelineResult:
        """Run the full pipeline and record the cost after each stage."""
        config = self.config
        budget = budget or Budget()
        stages = StageCosts()

        # --- stage 1: initialisers ---------------------------------------- #
        candidates: list[BspSchedule] = []
        for initializer in self._initializers(machine):
            initial = initializer.schedule(dag, machine, budget)
            stages.initial[initializer.name] = initial.cost()
            candidates.append(initial)

        # --- stage 2: HC on every initial schedule at once, then HCcs ----- #
        # the local-search stages run on the configured clock, not the
        # outer one, and keep the outer budget's work caps.  The joint HC
        # climb gets the clocks of the separate climbs it replaces.
        local_search = replace(budget, seconds=config.local_search_seconds)
        hill_climb, comm_climb = self._local_search()
        improved = hill_climb.improve_many(
            [initial.with_lazy_comm() for initial in candidates],
            local_search.fraction(0.9 * len(candidates)),
        )
        improved_candidates = [
            comm_climb.improve(schedule, local_search.fraction(0.1)) for schedule in improved
        ]

        stages.best_init = min(schedule.cost() for schedule in candidates)
        incumbent = best_schedule(*improved_candidates)
        stages.after_local_search = incumbent.cost()

        # --- stage 3: ILP-based improvement ------------------------------- #
        if config.use_ilp:
            # the ILP assignment methods operate on the lazy-communication view
            assignment_view = incumbent.with_lazy_comm()
            if assignment_view.cost() > incumbent.cost() + _EPS:
                assignment_view = incumbent
            full = IlpFullImprover(
                max_variables=config.ilp_full_max_variables,
                time_limit=config.ilp_full_seconds,
                node_limit=config.ilp_node_limit,
            )
            if config.use_full_ilp and full.applicable(assignment_view):
                assignment_view = full.improve(assignment_view, budget)
            else:
                partial = IlpPartialImprover(
                    max_variables=config.ilp_partial_max_variables,
                    time_limit_per_window=config.ilp_partial_seconds,
                    node_limit=config.ilp_node_limit,
                )
                assignment_view = partial.improve(assignment_view, budget)
            incumbent = best_schedule(incumbent, assignment_view)
        stages.after_ilp_assignment = incumbent.cost()

        if config.use_ilp and config.use_comm_ilp:
            comm_ilp = IlpCommScheduleImprover(
                time_limit=config.ilp_comm_seconds, node_limit=config.ilp_node_limit
            )
            incumbent = best_schedule(incumbent, comm_ilp.improve(incumbent, budget))
        stages.after_comm_ilp = incumbent.cost()

        return PipelineResult(schedule=incumbent, stages=stages)


class MultilevelPipeline(Scheduler):
    """The multilevel framework of Figure 4 built on top of the base pipeline."""

    name = "multilevel_framework"

    def __init__(
        self,
        config: PipelineConfig | None = None,
        coarsening_ratios: tuple[float, ...] = (0.3, 0.15),
        refine_interval: int = 5,
        refine_max_steps: int = 100,
    ) -> None:
        self.config = config or PipelineConfig()
        base_config = PipelineConfig(**{**self.config.__dict__, "use_comm_ilp": False})
        comm_improvers: tuple[ScheduleImprover, ...] = (
            CommScheduleHillClimbing(max_passes=self.config.hccs_max_passes),
        )
        if self.config.use_ilp and self.config.use_comm_ilp:
            comm_improvers = comm_improvers + (
                IlpCommScheduleImprover(
                    time_limit=self.config.ilp_comm_seconds,
                    node_limit=self.config.ilp_node_limit,
                ),
            )
        self._scheduler = MultilevelScheduler(
            base_scheduler=SchedulingPipeline(base_config),
            coarsening_ratios=coarsening_ratios,
            refine_interval=refine_interval,
            refine_max_steps=refine_max_steps,
            comm_improvers=comm_improvers,
        )

    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        return self._scheduler.schedule(dag, machine, budget)
