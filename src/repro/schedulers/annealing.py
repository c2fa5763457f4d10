"""Simulated-annealing local search (the paper's "escape local minima" future work).

Section 8 of the paper lists "more complex local search techniques that also
attempt to escape local minima" as a natural extension of the hill-climbing
``HC`` method.  :class:`SimulatedAnnealingImprover` implements exactly that:
it explores the same single-node move neighbourhood as ``HC`` (any processor,
previous/same/next superstep) through the same incremental
:class:`~repro.schedulers.hill_climbing.LazyCostTracker` (which reads
neighbourhoods as zero-copy CSR slices, so every proposal evaluation is a
handful of vectorized numpy expressions), but accepts
cost-increasing moves with probability ``exp(-Δ / T)`` under a geometrically
cooling temperature ``T``.  The best assignment seen during the walk is
returned (never worse than the input, like every improver in the framework).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.schedule import BspSchedule
from .base import Budget, ScheduleImprover
from .hill_climbing import LazyCostTracker

__all__ = ["SimulatedAnnealingImprover"]

_EPS = 1e-9


class SimulatedAnnealingImprover(ScheduleImprover):
    """Single-node-move simulated annealing on top of the lazy cost tracker.

    Parameters
    ----------
    initial_temperature:
        Starting temperature as a *fraction of the initial cost* (so the
        schedule scale does not matter); e.g. ``0.05`` allows uphill moves
        of about 5% of the cost early on.
    cooling:
        Geometric cooling factor applied after every sweep over the nodes.
    sweeps:
        Number of sweeps (each sweep proposes one random move per node).
    seed:
        RNG seed for reproducible runs.
    """

    name = "simulated_annealing"

    def __init__(
        self,
        initial_temperature: float = 0.05,
        cooling: float = 0.9,
        sweeps: int = 20,
        seed: int = 0,
    ) -> None:
        if not 0 < cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.sweeps = sweeps
        self.seed = seed

    def improve(
        self,
        schedule: BspSchedule,
        budget: Budget | None = None,
    ) -> BspSchedule:
        budget = budget or Budget()
        dag = schedule.dag
        machine = schedule.machine
        if dag.num_nodes == 0 or schedule.num_supersteps == 0:
            return schedule

        rng = np.random.default_rng(self.seed)
        tracker = LazyCostTracker(
            dag, machine, schedule.procs, schedule.supersteps, schedule.num_supersteps
        )
        current_cost = tracker.cost()
        best_cost = current_cost
        best_assignment = tracker.assignment()
        temperature = max(self.initial_temperature * current_cost, _EPS)

        for _ in range(self.sweeps):
            if budget.expired():
                break
            for v in rng.permutation(dag.num_nodes):
                v = int(v)
                new_proc = int(rng.integers(machine.num_procs))
                new_step = int(tracker.supersteps[v]) + int(rng.integers(-1, 2))
                if not tracker.is_valid_move(v, new_proc, new_step):
                    continue
                old_proc = int(tracker.procs[v])
                old_step = int(tracker.supersteps[v])
                delta = tracker.apply_move(v, new_proc, new_step)
                accept = delta <= _EPS or rng.random() < math.exp(-delta / temperature)
                if not accept:
                    tracker.apply_move(v, old_proc, old_step)
                    continue
                current_cost += delta
                if current_cost < best_cost - _EPS:
                    best_cost = current_cost
                    best_assignment = tracker.assignment()
            temperature = max(temperature * self.cooling, _EPS)

        procs, supersteps = best_assignment
        candidate = BspSchedule(dag, machine, procs, supersteps).compacted()
        return candidate if candidate.cost() < schedule.cost() - _EPS else schedule
