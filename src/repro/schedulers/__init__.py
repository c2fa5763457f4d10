"""Scheduling algorithms: baselines, initialisers, local search, ILP and multilevel."""

from .annealing import SimulatedAnnealingImprover
from .base import (
    Budget,
    Scheduler,
    ScheduleImprover,
    TimeBudget,
    best_schedule,
    budget_limits,
)
from .clustering import LinearClusteringScheduler
from .bsp_greedy import BspGreedyScheduler
from .cilk import CilkScheduler
from .comm_hill_climbing import CommScheduleHillClimbing
from .hdagg import HDaggScheduler
from .hill_climbing import HillClimbingImprover, LazyCostTracker
from .ilp import (
    IlpCommScheduleImprover,
    IlpFullImprover,
    IlpInitScheduler,
    IlpPartialImprover,
    MilpProblem,
    WindowIlp,
    estimate_window_variables,
)
from .listsched import BlEstScheduler, EtfScheduler
from .multilevel import MultilevelScheduler, coarsen_dag
from .pipeline import (
    MultilevelPipeline,
    PipelineConfig,
    PipelineResult,
    SchedulingPipeline,
    StageCosts,
)
from .registry import SCHEDULER_FACTORIES, available_schedulers, create_scheduler
from .source_heuristic import SourceScheduler
from .trivial import RoundRobinScheduler, TrivialScheduler

__all__ = [
    "BlEstScheduler",
    "Budget",
    "BspGreedyScheduler",
    "CilkScheduler",
    "CommScheduleHillClimbing",
    "EtfScheduler",
    "HDaggScheduler",
    "HillClimbingImprover",
    "IlpCommScheduleImprover",
    "IlpFullImprover",
    "IlpInitScheduler",
    "IlpPartialImprover",
    "LazyCostTracker",
    "LinearClusteringScheduler",
    "MilpProblem",
    "MultilevelPipeline",
    "MultilevelScheduler",
    "PipelineConfig",
    "PipelineResult",
    "RoundRobinScheduler",
    "SCHEDULER_FACTORIES",
    "Scheduler",
    "SimulatedAnnealingImprover",
    "ScheduleImprover",
    "SchedulingPipeline",
    "SourceScheduler",
    "StageCosts",
    "TimeBudget",
    "TrivialScheduler",
    "WindowIlp",
    "available_schedulers",
    "best_schedule",
    "budget_limits",
    "coarsen_dag",
    "create_scheduler",
    "estimate_window_variables",
]
