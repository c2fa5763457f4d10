"""Core substrate: computational DAGs, BSP(+NUMA) machines, schedules and costs."""

from .classical import ClassicalSchedule, classical_to_bsp
from .comm import CommStep, CommWindow, eager_comm_schedule, lazy_comm_schedule, required_transfers
from .cost import CostBreakdown, evaluate_cost
from .dag import ComputationalDAG, DagBuilder, EdgeView
from .exceptions import (
    ConfigurationError,
    CycleError,
    DagError,
    MachineError,
    ReproError,
    ScheduleError,
    SolverError,
)
from .machine import BspMachine, MachineSpec
from .parallel import default_workers, parallel_map
from .schedule import BspSchedule
from .serialization import (
    dag_from_dict,
    dag_to_dict,
    load_schedule,
    machine_from_dict,
    machine_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from .validation import schedule_violations, validate_schedule

__all__ = [
    "BspMachine",
    "BspSchedule",
    "ClassicalSchedule",
    "CommStep",
    "CommWindow",
    "ComputationalDAG",
    "ConfigurationError",
    "CostBreakdown",
    "CycleError",
    "DagBuilder",
    "DagError",
    "EdgeView",
    "MachineError",
    "MachineSpec",
    "ReproError",
    "ScheduleError",
    "SolverError",
    "classical_to_bsp",
    "dag_from_dict",
    "dag_to_dict",
    "eager_comm_schedule",
    "evaluate_cost",
    "lazy_comm_schedule",
    "load_schedule",
    "machine_from_dict",
    "machine_to_dict",
    "default_workers",
    "parallel_map",
    "schedule_from_dict",
    "schedule_to_dict",
    "required_transfers",
    "schedule_violations",
    "validate_schedule",
]
