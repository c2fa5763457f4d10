"""repro — BSP(+NUMA) multiprocessor DAG scheduling framework.

A from-scratch Python reproduction of *"Efficient Multi-Processor Scheduling
in Increasingly Realistic Models"* (Papp, Anegg, Karanasiou, Yzelman,
SPAA 2024): the BSP+NUMA cost model, the computational DAG database, the
baseline schedulers (Cilk, BL-EST, ETF, HDagg), the initialisation
heuristics (BSPg, Source, ILPinit), hill-climbing local search (HC, HCcs),
the ILP-based improvement methods (ILPfull, ILPpart, ILPcs), the multilevel
scheduler, and the experiment harness regenerating every table and figure of
the paper's evaluation.

Quickstart
----------
>>> from repro import BspMachine, SchedulingPipeline
>>> from repro.dagdb import SparseMatrixPattern, build_spmv_dag
>>> dag = build_spmv_dag(SparseMatrixPattern.random(8, 0.4, seed=1)).dag
>>> machine = BspMachine.uniform(4, g=1, latency=5)
>>> schedule = SchedulingPipeline().schedule(dag, machine)
>>> schedule.cost() > 0
True
"""

from .core import (
    BspMachine,
    BspSchedule,
    ClassicalSchedule,
    CommStep,
    ComputationalDAG,
    CostBreakdown,
    ReproError,
    ScheduleError,
    classical_to_bsp,
    evaluate_cost,
    lazy_comm_schedule,
)
from .api import (
    MachineSpec,
    ScheduleRequest,
    ScheduleResult,
    SchedulerSpec,
    SchedulingService,
)
from .schedulers import (
    BlEstScheduler,
    Budget,
    BspGreedyScheduler,
    CilkScheduler,
    CommScheduleHillClimbing,
    EtfScheduler,
    HDaggScheduler,
    HillClimbingImprover,
    IlpCommScheduleImprover,
    IlpFullImprover,
    IlpInitScheduler,
    IlpPartialImprover,
    MultilevelPipeline,
    MultilevelScheduler,
    PipelineConfig,
    Scheduler,
    ScheduleImprover,
    SchedulingPipeline,
    SourceScheduler,
    TrivialScheduler,
    available_schedulers,
    create_scheduler,
)

__version__ = "1.0.0"

__all__ = [
    "BlEstScheduler",
    "BspGreedyScheduler",
    "BspMachine",
    "BspSchedule",
    "Budget",
    "CilkScheduler",
    "ClassicalSchedule",
    "CommScheduleHillClimbing",
    "CommStep",
    "ComputationalDAG",
    "CostBreakdown",
    "EtfScheduler",
    "HDaggScheduler",
    "HillClimbingImprover",
    "IlpCommScheduleImprover",
    "IlpFullImprover",
    "IlpInitScheduler",
    "IlpPartialImprover",
    "MachineSpec",
    "MultilevelPipeline",
    "MultilevelScheduler",
    "PipelineConfig",
    "ReproError",
    "ScheduleError",
    "ScheduleImprover",
    "ScheduleRequest",
    "ScheduleResult",
    "Scheduler",
    "SchedulerSpec",
    "SchedulingPipeline",
    "SchedulingService",
    "SourceScheduler",
    "TrivialScheduler",
    "available_schedulers",
    "classical_to_bsp",
    "create_scheduler",
    "evaluate_cost",
    "lazy_comm_schedule",
    "__version__",
]
