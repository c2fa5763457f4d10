"""Per-ratio oracle of the multilevel scheduler.

The program coarsens a DAG once, to the smallest ratio's target, and
solves every ratio on a prefix of that one contraction sequence.  This
oracle takes the direct route: it coarsens the DAG afresh for every ratio,
to that ratio's own target, and then runs the same per-ratio solve
(coarse solve, uncoarsening with refinement bursts, final HC and
communication improvers).  Both must give the same schedule.
"""

from __future__ import annotations

from repro.core import BspMachine, BspSchedule, ComputationalDAG
from repro.schedulers import Budget, HillClimbingImprover, MultilevelScheduler
from repro.schedulers.base import best_schedule
from repro.schedulers.multilevel import (
    coarsen_dag,
    project_arrays,
    project_to_original,
    restrict_arrays,
)

__all__ = ["multilevel_reference"]


def _one_ratio(
    scheduler: MultilevelScheduler,
    dag: ComputationalDAG,
    machine: BspMachine,
    ratio: float,
    budget: Budget,
) -> BspSchedule:
    base = scheduler._resolve_base()
    target = max(2, int(round(dag.num_nodes * ratio)))
    sequence = coarsen_dag(dag, target_nodes=target)

    full_quotient = sequence.quotient()
    coarse_schedule = base.schedule(full_quotient.dag, machine, budget.fraction(0.5))
    procs, supersteps = project_to_original(full_quotient, coarse_schedule)

    refiner = HillClimbingImprover(max_steps=scheduler.refine_max_steps)
    level = sequence.num_contractions - scheduler.refine_interval
    while level > 0:
        quotient = sequence.quotient(level)
        coarse_procs, coarse_steps = restrict_arrays(quotient, procs, supersteps)
        tracker, _ = refiner.refine_assignment(
            quotient.dag, machine, coarse_procs, coarse_steps, budget=budget.fraction(0.1)
        )
        coarse_procs, coarse_steps, _ = tracker.compacted_assignment()
        procs, supersteps = project_arrays(quotient, coarse_procs, coarse_steps)
        level -= scheduler.refine_interval

    schedule = BspSchedule(dag, machine, procs, supersteps).compacted()
    schedule = refiner.improve(schedule, budget.fraction(0.2))
    for improver in scheduler.comm_improvers:
        schedule = improver.improve(schedule, budget.fraction(0.2))
    return schedule


def multilevel_reference(
    scheduler: MultilevelScheduler,
    dag: ComputationalDAG,
    machine: BspMachine,
    budget: Budget | None = None,
) -> BspSchedule:
    """What ``scheduler.schedule(dag, machine, budget)`` must return.

    The budget must carry no clock, so that no stage stops early.
    """
    budget = budget or Budget()
    assert budget.seconds is None, "the oracle has no clock checks"
    base = scheduler._resolve_base()
    if dag.num_nodes < scheduler.min_nodes:
        return base.schedule(dag, machine, budget)
    ratios = scheduler.coarsening_ratios
    return best_schedule(
        *(
            _one_ratio(scheduler, dag, machine, ratio, budget.fraction(1.0 / len(ratios)))
            for ratio in ratios
        )
    )
