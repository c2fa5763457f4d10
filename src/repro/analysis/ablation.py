"""Ablation studies for the framework's own design choices.

The paper motivates several design decisions without dedicated experiments
(greedy first-improvement HC, the lazy communication schedule as the default,
closing a BSPg superstep once half the processors are idle, refining every
few uncontraction steps).  The functions in this module quantify those
choices on a configurable instance set so the benchmark harness can report
them alongside the paper's own tables:

* :func:`local_search_component_ablation` — initial schedule vs ``+HC`` vs
  ``+HC+HCcs``;
* :func:`bspg_idle_fraction_ablation` — the BSPg superstep-closing threshold;
* :func:`comm_schedule_policy_ablation` — eager vs lazy vs optimised
  communication schedules for a fixed assignment;
* :func:`multilevel_refinement_ablation` — refinement interval of the
  multilevel scheduler.

Every function returns ``(rows, text)`` in the same shape as the table
formatters of :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

from typing import Sequence

from ..core.comm import eager_comm_schedule
from ..core.machine import BspMachine
from ..dagdb.datasets import DatasetInstance
from ..schedulers.bsp_greedy import BspGreedyScheduler
from ..schedulers.comm_hill_climbing import CommScheduleHillClimbing
from ..schedulers.hill_climbing import HillClimbingImprover
from ..schedulers.ilp.commsched import IlpCommScheduleImprover
from ..schedulers.multilevel import MultilevelScheduler
from ..schedulers.source_heuristic import SourceScheduler
from .metrics import geometric_mean
from .tables import format_grid

__all__ = [
    "local_search_component_ablation",
    "bspg_idle_fraction_ablation",
    "comm_schedule_policy_ablation",
    "multilevel_refinement_ablation",
]


def _geo_ratios(costs: dict[str, list[float]], baseline: str) -> dict[str, float]:
    base = costs[baseline]
    return {
        name: geometric_mean(value / base[i] for i, value in enumerate(values))
        for name, values in costs.items()
    }


def local_search_component_ablation(
    instances: Sequence[DatasetInstance],
    machine: BspMachine,
) -> tuple[dict[str, float], str]:
    """Initial schedule vs HC vs HC+HCcs (ratios to the initial)."""
    costs: dict[str, list[float]] = {"init": [], "hc": [], "hc+hccs": []}
    hc = HillClimbingImprover()
    hccs = CommScheduleHillClimbing()
    for instance in instances:
        initial = BspGreedyScheduler().schedule(instance.dag, machine)
        improved = hc.improve(initial)
        costs["init"].append(initial.cost())
        costs["hc"].append(improved.cost())
        costs["hc+hccs"].append(hccs.improve(improved).cost())
    ratios = _geo_ratios(costs, "init")
    rows = {"cost ratio vs Init": {name: f"{value:.3f}" for name, value in ratios.items()}}
    text = format_grid(rows, "", "Ablation: local-search components (lower is better)", column_width=12)
    return ratios, text


def bspg_idle_fraction_ablation(
    instances: Sequence[DatasetInstance],
    machine: BspMachine,
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> tuple[dict[float, float], str]:
    """Effect of the BSPg superstep-closing threshold (ratios to the paper's 0.5)."""
    costs: dict[str, list[float]] = {f"{fraction:g}": [] for fraction in fractions}
    for instance in instances:
        for fraction in fractions:
            schedule = BspGreedyScheduler(idle_fraction=fraction).schedule(
                instance.dag, machine
            )
            costs[f"{fraction:g}"].append(schedule.cost())
    ratios = _geo_ratios(costs, "0.5")
    rows = {"cost ratio vs 0.5": {name: f"{value:.3f}" for name, value in ratios.items()}}
    text = format_grid(rows, "", "Ablation: BSPg idle fraction", column_width=10)
    return {float(name): value for name, value in ratios.items()}, text


def comm_schedule_policy_ablation(
    instances: Sequence[DatasetInstance],
    machine: BspMachine,
) -> tuple[dict[str, float], str]:
    """Eager vs lazy vs HCcs vs ILPcs communication schedules for a fixed assignment."""
    costs: dict[str, list[float]] = {"lazy": [], "eager": [], "hccs": [], "ilpcs": []}
    hccs = CommScheduleHillClimbing()
    ilpcs = IlpCommScheduleImprover(time_limit=2.0)
    for instance in instances:
        schedule = SourceScheduler().schedule(instance.dag, machine)
        costs["lazy"].append(schedule.cost())
        eager = schedule.with_comm_schedule(
            eager_comm_schedule(instance.dag, schedule.procs, schedule.supersteps)
        )
        costs["eager"].append(eager.cost())
        costs["hccs"].append(hccs.improve(schedule).cost())
        costs["ilpcs"].append(ilpcs.improve(schedule).cost())
    ratios = _geo_ratios(costs, "lazy")
    rows = {"cost ratio vs lazy": {name: f"{value:.3f}" for name, value in ratios.items()}}
    text = format_grid(rows, "", "Ablation: communication schedule policy", column_width=10)
    return ratios, text


def multilevel_refinement_ablation(
    instances: Sequence[DatasetInstance],
    machine: BspMachine,
    intervals: Sequence[int] = (1, 5, 20),
) -> tuple[dict[int, float], str]:
    """Effect of the multilevel refinement interval (ratios to the paper's 5)."""
    costs: dict[str, list[float]] = {str(interval): [] for interval in intervals}
    for instance in instances:
        for interval in intervals:
            scheduler = MultilevelScheduler(
                base_scheduler=BspGreedyScheduler(),
                coarsening_ratios=(0.3,),
                refine_interval=interval,
            )
            costs[str(interval)].append(scheduler.schedule(instance.dag, machine).cost())
    baseline = "5" if 5 in intervals else str(intervals[0])
    ratios = _geo_ratios(costs, baseline)
    rows = {
        f"cost ratio vs {baseline}": {name: f"{value:.3f}" for name, value in ratios.items()}
    }
    text = format_grid(rows, "", "Ablation: multilevel refinement interval", column_width=10)
    return {int(name): value for name, value in ratios.items()}, text
