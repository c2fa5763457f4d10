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
4. After full uncoarsening, climb once more on the original DAG, then
   re-optimise the communication schedule (``HCcs`` and, when enabled,
   ``ILPcs``).

The ratios' uncoarsenings are independent, so they walk in lockstep: each
round refines the next level of every ratio that still has one in one
burst, whose tracker holds each ratio's quotient DAG as a copy, and the
final climbs of all ratios share one tracker too.  Each ratio still gets
the moves, stop reasons, compactions and hand-offs of its own walk, so
without a clock the result is that of solving the ratios one after
another.
"""

from __future__ import annotations

import math

import numpy as np

from ...core.dag import ComputationalDAG
from ...core.exceptions import ConfigurationError
from ...core.machine import BspMachine
from ...core.schedule import BspSchedule
from ..base import Budget, Scheduler, ScheduleImprover, best_schedule
from ..comm_hill_climbing import CommScheduleHillClimbing
from ..hill_climbing import CONVERGED, HillClimbingImprover
from .coarsen import CoarseningSequence, QuotientDag, coarsen_dag
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
    comm_improvers:
        Improvers applied to the fully uncoarsened schedule (default:
        ``HCcs``; the pipeline variant also appends ``ILPcs``).

    Instances of fewer than :attr:`min_nodes` nodes are scheduled directly
    by the base scheduler (coarsening a tiny DAG is pointless, as the
    paper notes).

    A wall-clock budget is checked between stages, between refinement
    bursts and before every HC block.  Every HC pass opens with a
    full-size block, so a burst may overrun the clock by one full block's
    evaluation.  Each ratio's stages get their shares of ``1 / len(ratios)``
    of the clock; a burst or final climb run for several ratios at once
    gets the sum of their shares, and the walk and the communication
    improvers stop once the whole budget has run out.  Invalid ratios
    raise :class:`ConfigurationError`.
    """

    name = "multilevel"
    #: smaller instances skip coarsening
    min_nodes = 16

    def __init__(
        self,
        base_scheduler: Scheduler | None = None,
        coarsening_ratios: tuple[float, ...] = (0.3, 0.15),
        refine_interval: int = 5,
        refine_max_steps: int = 100,
        comm_improvers: tuple[ScheduleImprover, ...] | None = None,
    ) -> None:
        self.base_scheduler = base_scheduler
        self.coarsening_ratios = _checked_ratios(coarsening_ratios)
        self.refine_interval = max(1, refine_interval)
        self.refine_max_steps = refine_max_steps
        self.comm_improvers = (
            comm_improvers if comm_improvers is not None else (CommScheduleHillClimbing(),)
        )

    # ------------------------------------------------------------------ #
    def _resolve_base(self) -> Scheduler:
        if self.base_scheduler is not None:
            return self.base_scheduler
        # local import: avoids circularity
        from ..pipeline import PipelineConfig, SchedulingPipeline

        return SchedulingPipeline(PipelineConfig(use_comm_ilp=False))

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
        sequences = [
            CoarseningSequence(original=dag, records=full.records[: max(0, n - target)])
            for target in targets
        ]
        # every stage of a ratio gets its share of that ratio's clock; a
        # stage run for several ratios at once gets the sum of their shares
        per_ratio = budget.fraction(1.0 / len(targets))

        # solve on every ratio's fully coarsened DAG
        assignments = []  # each ratio's (π, τ) on the original DAG
        for sequence in sequences:
            quotient = sequence.quotient()
            coarse_schedule = base.schedule(quotient.dag, machine, per_ratio.fraction(0.5))
            assignments.append(project_to_original(quotient, coarse_schedule))

        refiner = HillClimbingImprover(max_steps=self.refine_max_steps)
        self._uncoarsen(machine, sequences, assignments, refiner, budget, per_ratio)

        # final refinement of every ratio at once, then communication
        # optimisation on the original DAG
        schedules = refiner.improve_many(
            [BspSchedule(dag, machine, *assignment).compacted() for assignment in assignments],
            per_ratio.fraction(0.2 * len(targets)),
        )
        candidates = []
        for schedule in schedules:
            for improver in self.comm_improvers:
                if budget.expired():
                    break
                schedule = improver.improve(schedule, per_ratio.fraction(0.2))
            candidates.append(schedule)
        return best_schedule(*candidates)

    # ------------------------------------------------------------------ #
    def _uncoarsen(
        self,
        machine: BspMachine,
        sequences: list[CoarseningSequence],
        assignments: list[tuple[np.ndarray, np.ndarray]],
        refiner: HillClimbingImprover,
        budget: Budget,
        per_ratio: Budget,
    ) -> None:
        """Uncoarsen every ratio in lockstep, refining each level; updates ``assignments``.

        Each round takes every ratio that still has a level one level down
        and refines all of them in one burst: one tracker holds each
        ratio's quotient DAG as a copy, and its passes score the copies'
        blocks together.  The copies are independent, so each ratio gets
        the moves of a burst of its own.  Every level works on raw
        assignment arrays: the cluster-constant projection of a valid
        schedule is valid by construction, so no schedule object is built
        and no validation runs per burst.  After the burst, supersteps
        emptied by its moves are compacted away per copy (without it, the
        ±1-superstep move neighbourhood cannot bridge the gaps at later
        levels).  A copy whose burst converged and whose compaction dropped
        no superstep hands its verdict on: at the ratio's next level, the
        first pass skips the nodes the uncoarsening step left alone, if
        that level starts from the same work and traffic rows.
        """
        levels = [sequence.num_contractions - self.refine_interval for sequence in sequences]
        walking = [r for r, level in enumerate(levels) if level > 0]
        previous = None  # the last round's tracker
        # ratio -> (quotient, copy in ``previous``) of its last level, when
        # that level converged and kept every superstep
        verdicts: dict[int, tuple[QuotientDag, int]] = {}
        while walking and not budget.expired():
            quotients = [sequences[r].quotient(levels[r]) for r in walking]
            dags = [quotient.dag for quotient in quotients]
            coarse = [restrict_arrays(q, *assignments[r]) for q, r in zip(quotients, walking)]
            procs, steps = zip(*coarse)
            hand_off = None
            if verdicts:
                hand_off = (
                    previous,
                    [
                        (verdicts[r][1], unchanged_nodes(verdicts[r][0], quotient))
                        if r in verdicts
                        else None
                        for r, quotient in zip(walking, quotients)
                    ],
                )
            tracker = None
            if not budget.expired():
                tracker, _ = refiner.refine_assignment(
                    dags,
                    machine,
                    procs,
                    steps,
                    budget=per_ratio.fraction(0.1 * len(walking)),
                    hand_off=hand_off,
                )
            verdicts = {}
            for t, r in enumerate(walking):
                coarse_procs, coarse_steps = coarse[t]
                if tracker is not None:
                    coarse_procs, coarse_steps, used = tracker.compacted_assignment(t)
                    count = tracker.step_offsets[t + 1] - tracker.step_offsets[t]
                    if refiner.copy_stops[t] == CONVERGED and used == count:
                        verdicts[r] = (quotients[t], t)
                assignments[r] = project_arrays(quotients[t], coarse_procs, coarse_steps)
                levels[r] -= self.refine_interval
            previous = tracker
            walking = [r for r in walking if levels[r] > 0]
