"""The multilevel (coarsen–solve–refine) scheduler (paper §4.5, Appendix A.5).

Pipeline (Figure 4 of the paper):

1. **Coarsen** the DAG by repeated acyclicity-preserving edge contractions
   down to a fraction of its original size (the paper evaluates 15% and
   30% and keeps the better result, which is also the default here).  The
   DAG is coarsened once, to the smallest ratio's target: a larger
   target's contraction sequence is a prefix of a smaller target's, so
   every ratio solves on a prefix of that one sequence.
2. **Solve** the BSP scheduling problem on the coarse DAG with a base
   scheduler (by default the framework pipeline of Figure 3, without the
   final communication-schedule ILP).
3. **Uncoarsen and refine**: undo the contractions a few at a time; after
   every batch of uncontractions, refine the projected schedule with a short
   burst of hill climbing on the current (partially uncoarsened) quotient
   DAG.  When a level's burst converged, the next level's first pass
   scores only the nodes the uncoarsening step can have changed
   (:func:`~repro.schedulers.multilevel.refine.unchanged_nodes`); the
   accepted moves are those of a full scan.
4. After full uncoarsening, re-optimise the communication schedule on the
   original DAG (``HCcs`` and, when enabled, ``ILPcs``).
"""

from __future__ import annotations

import math

from ...core.dag import ComputationalDAG
from ...core.exceptions import ConfigurationError
from ...core.machine import BspMachine
from ...core.schedule import BspSchedule
from ..base import Budget, Scheduler, ScheduleImprover, best_schedule
from ..comm_hill_climbing import CommScheduleHillClimbing
from ..hill_climbing import CONVERGED, HillClimbingImprover
from .coarsen import CoarseningSequence, coarsen_dag
from .refine import project_arrays, project_to_original, restrict_arrays, unchanged_nodes

__all__ = ["MultilevelScheduler"]


def _checked_ratios(ratios: tuple[float, ...]) -> tuple[float, ...]:
    """``ratios`` when it is a non-empty tuple of finite numbers in ``(0, 1]``."""
    if not isinstance(ratios, tuple) or not ratios:
        raise ConfigurationError(
            f"coarsening_ratios must be a non-empty tuple, got {ratios!r}"
        )
    for ratio in ratios:
        if (
            isinstance(ratio, bool)
            or not isinstance(ratio, (int, float))
            or not (math.isfinite(ratio) and 0 < ratio <= 1)
        ):
            raise ConfigurationError(
                f"coarsening ratios must be finite numbers in (0, 1], got {ratio!r}"
            )
    return ratios


class MultilevelScheduler(Scheduler):
    """Coarsen–solve–refine scheduling for communication-dominated instances.

    Parameters
    ----------
    base_scheduler:
        Scheduler used on the coarse DAG.  Defaults to the framework's base
        pipeline (constructed lazily to avoid a circular import).
    coarsening_ratios:
        Fractions of the original node count to coarsen to; the best result
        over all ratios is returned (paper: 0.30 and 0.15).  A non-empty
        tuple of finite ratios in ``(0, 1]``.  The DAG is coarsened once,
        to the smallest ratio's target, and each ratio solves on the prefix
        of that contraction sequence that its own target stops at.
    refine_interval:
        Number of uncontraction steps between two refinement bursts (paper: 5).
    refine_max_steps:
        Maximum number of accepted hill-climbing moves per refinement burst
        (paper: 100).
    refine_rounds:
        Maximum number of hill-climbing bursts run at every uncoarsening
        level.  The paper runs one; additional rounds reuse the level's cost
        tracker, so they cost only the extra accepted moves, not a tracker
        rebuild.  A level stops after a burst that converged (or accepted
        nothing), since another round would only re-scan.
    comm_improvers:
        Improvers applied to the fully uncoarsened schedule (default:
        ``HCcs``; the pipeline variant also appends ``ILPcs``).
    min_nodes:
        Instances smaller than this are scheduled directly by the base
        scheduler (coarsening a tiny DAG is pointless, as the paper notes).

    A wall-clock budget is checked between stages, between refinement
    bursts and before every HC block.  Every HC pass opens with a
    full-size block, so a burst may overrun the clock by one full block's
    evaluation.  Invalid ratios raise :class:`ConfigurationError`.
    """

    name = "multilevel"

    def __init__(
        self,
        base_scheduler: Scheduler | None = None,
        coarsening_ratios: tuple[float, ...] = (0.3, 0.15),
        refine_interval: int = 5,
        refine_max_steps: int = 100,
        refine_rounds: int = 1,
        comm_improvers: tuple[ScheduleImprover, ...] | None = None,
        min_nodes: int = 16,
    ) -> None:
        self.base_scheduler = base_scheduler
        self.coarsening_ratios = _checked_ratios(coarsening_ratios)
        self.refine_interval = max(1, refine_interval)
        self.refine_max_steps = refine_max_steps
        self.refine_rounds = max(1, refine_rounds)
        self.comm_improvers = (
            comm_improvers if comm_improvers is not None else (CommScheduleHillClimbing(),)
        )
        self.min_nodes = min_nodes

    # ------------------------------------------------------------------ #
    def _resolve_base(self) -> Scheduler:
        if self.base_scheduler is not None:
            return self.base_scheduler
        from ..pipeline import SchedulingPipeline  # local import: avoids circularity

        return SchedulingPipeline.default(use_ilp=True, use_comm_ilp=False)

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        budget = budget or Budget()
        base = self._resolve_base()
        if dag.num_nodes < self.min_nodes:
            return base.schedule(dag, machine, budget)

        # coarsen_dag reads its target only in the loop condition, and every
        # contraction removes one node: a larger target's sequence is the
        # first n - target records of a smaller target's (or all of them
        # when coarsening stops early)
        n = dag.num_nodes
        targets = [max(2, int(round(n * ratio))) for ratio in self.coarsening_ratios]
        full = coarsen_dag(dag, target_nodes=min(targets))
        candidates: list[BspSchedule] = []
        for target in targets:
            sequence = CoarseningSequence(
                original=dag, records=full.records[: max(0, n - target)]
            )
            per_ratio = budget.fraction(1.0 / len(targets))
            candidates.append(self._run_one_ratio(machine, base, sequence, per_ratio))
        return best_schedule(*candidates)

    # ------------------------------------------------------------------ #
    def _run_one_ratio(
        self,
        machine: BspMachine,
        base: Scheduler,
        sequence: CoarseningSequence,
        budget: Budget,
    ) -> BspSchedule:
        dag = sequence.original

        # solve on the fully coarsened DAG
        full_quotient = sequence.quotient()
        coarse_schedule = base.schedule(full_quotient.dag, machine, budget.fraction(0.5))
        procs, supersteps = project_to_original(full_quotient, coarse_schedule)

        # Gradual uncoarsening with refinement bursts.  Every level works on
        # raw assignment arrays: the cluster-constant projection of a valid
        # schedule is valid by construction, so no schedule object is built
        # and no validation runs per burst; the level's cost tracker is
        # built once and reused across all bursts of that level.  After the
        # bursts, supersteps emptied by the moves are compacted away (the
        # seed path compacted per level too — without it, the ±1-superstep
        # move neighbourhood cannot bridge the gaps at later levels).  A
        # level whose last burst converged and whose compaction dropped no
        # superstep hands its verdict on: the next level's first pass skips
        # the nodes the uncoarsening step left alone.
        refiner = HillClimbingImprover(max_steps=self.refine_max_steps)
        total = sequence.num_contractions
        level = total - self.refine_interval
        converged = None  # (quotient, tracker) of the last converged level
        while level > 0:
            if budget.expired():
                break
            quotient = sequence.quotient(level)
            coarse_procs, coarse_steps = restrict_arrays(quotient, procs, supersteps)
            hand_off = None
            if converged is not None:
                previous_quotient, previous = converged
                hand_off = (previous, unchanged_nodes(previous_quotient, quotient))
            converged = None
            tracker = None
            for _ in range(self.refine_rounds):
                if budget.expired():
                    break
                tracker, accepted = refiner.refine_assignment(
                    quotient.dag,
                    machine,
                    coarse_procs if tracker is None else tracker.procs,
                    coarse_steps if tracker is None else tracker.supersteps,
                    budget=budget.fraction(0.1),
                    tracker=tracker,
                    hand_off=hand_off,
                )
                hand_off = None
                if accepted == 0 or refiner.last_stop == CONVERGED:
                    break  # further rounds would only re-scan
            if tracker is not None:
                coarse_procs, coarse_steps, used = tracker.compacted_assignment()
                if refiner.last_stop == CONVERGED and used == tracker.num_supersteps:
                    converged = (quotient, tracker)
            procs, supersteps = project_arrays(quotient, coarse_procs, coarse_steps)
            level -= self.refine_interval

        # final refinement and communication optimisation on the original DAG
        schedule = BspSchedule(dag, machine, procs, supersteps).compacted()
        schedule = refiner.improve(schedule, budget.fraction(0.2))
        for improver in self.comm_improvers:
            if budget.expired():
                break
            schedule = improver.improve(schedule, budget.fraction(0.2))
        return schedule
