"""The BSPg greedy initialisation heuristic (paper §4.2, Appendix A.2, Algorithm 1).

BSPg builds a BSP schedule directly, superstep by superstep, while still
simulating concrete start/finish times inside each computation phase so that
the per-processor work stays balanced.  The rules are:

* a processor may only be assigned a node ``v`` when all of ``v``'s direct
  predecessors are already available to it *within the current superstep*
  (computed on the same processor, or in an earlier superstep);
* nodes that became ready but have predecessors on several processors in the
  current superstep are parked in a global ``ready_all`` set and only become
  assignable (to anybody) when the next superstep starts;
* when at least half of the processors are idle and nothing in ``ready_all``
  can be assigned without communication, the computation phase is closed and
  the next superstep begins;
* tie-breaking between assignable nodes uses a communication-saving score:
  a candidate ``v`` is preferred when its predecessors ``u`` (or their
  direct successors) already live on the target processor, weighted by
  ``c(u) / outdeg(u)``.  The highest score wins; ties go to the smaller
  node id.

The score is kept incrementally, without changing a single float:

* *presence bits* — one ``bytearray(n)`` per processor; bit ``(u, p)`` is
  set once ``u`` or any successor of ``u`` is assigned to ``p``.
  Assigning ``x`` to ``p`` sets the bits of ``x`` and of every predecessor
  of ``x``.  A bit never clears, because BSPg never moves a node;
* *cached scores* — one ``node -> score`` dict per processor, filled when
  a pool candidate is first scored for that processor.  A missing score
  is computed exactly as the definition reads: start at ``0.0`` and walk
  the candidate's predecessors in CSR order, adding ``c(u) / outdeg(u)``
  where the bit is set.  Keep that order: float addition is not
  associative, and a reordered sum can flip a tie;
* *eviction* — when bit ``(u, p)`` turns on, the cached scores of ``u``'s
  successors for ``p`` are dropped, and an assigned node's score is
  dropped for every processor.  The caches therefore hold only ready
  nodes, O(max ready × P) entries, next to the n × P bytes of bits.

A DAG always has a ready node when a superstep opens with nodes left to
assign; a graph with a directed cycle does not, and raises
:class:`~repro.core.exceptions.CycleError` there instead of looping.

Communication steps are not constructed explicitly; the resulting schedule
uses the lazy communication schedule.
"""

from __future__ import annotations

import heapq
import math
from numbers import Real

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.exceptions import ConfigurationError, CycleError
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Budget, Scheduler

__all__ = ["BspGreedyScheduler"]


class BspGreedyScheduler(Scheduler):
    """Greedy BSP-tailored initialisation heuristic (``BSPg``).

    Each processor keeps presence bits (which nodes, or successors of
    them, it holds) and a cache of exact candidate scores, so a pick
    rescores only the candidates whose predecessors gained a bit since
    they were last scored.  Schedules equal those of rescoring the whole
    pool at every pick.

    Parameters
    ----------
    idle_fraction:
        The computation phase of the current superstep is closed once at
        least this fraction of the processors is idle and cannot receive
        further work without communication (the paper uses one half).
        A finite real number in ``(0, 1]``; anything else raises
        :class:`~repro.core.exceptions.ConfigurationError`.
    """

    name = "bsp_greedy"

    def __init__(self, idle_fraction: float = 0.5) -> None:
        if (
            isinstance(idle_fraction, bool)
            or not isinstance(idle_fraction, Real)
            or not math.isfinite(idle_fraction)
            or not 0.0 < idle_fraction <= 1.0
        ):
            raise ConfigurationError(
                f"idle_fraction must be a finite real number in (0, 1], got {idle_fraction!r}"
            )
        self.idle_fraction = idle_fraction

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: Budget | None = None,
    ) -> BspSchedule:
        n = dag.num_nodes
        num_procs = machine.num_procs
        # flat Python copies: list indexing beats numpy scalar reads here
        pred_ptr = dag.pred_indptr.tolist()
        pred_idx = dag.pred_indices.tolist()
        succ_ptr = dag.succ_indptr.tolist()
        succ_idx = dag.succ_indices.tolist()
        work = dag.work_weights.tolist()
        weight = (dag.comm_weights / np.maximum(dag.out_degrees(), 1)).tolist()
        remaining_preds = dag.in_degrees().tolist()
        procs = [-1] * n
        supersteps = [0] * n
        near = [bytearray(n) for _ in range(num_procs)]
        scores: list[dict[int, float]] = [{} for _ in range(num_procs)]

        ready: set[int] = set(dag.sources())
        ready_all: set[int] = set(ready)
        ready_proc: list[set[int]] = [set() for _ in range(num_procs)]
        free = [True] * num_procs

        superstep = 0
        end_step = False
        unassigned = n
        # Heap of (finish_time, node); a sentinel node of -1 marks the
        # "time 0" entry that opens every superstep.
        finish_events: list[tuple[float, int]] = [(0.0, -1)]
        idle_threshold = max(1, int(np.ceil(self.idle_fraction * num_procs)))

        def choose_node(proc: int) -> int | None:
            """Pick the best assignable node for ``proc`` (Appendix A.2 score)."""
            pool = ready_proc[proc] or ready_all
            cache = scores[proc]
            bits = near[proc]
            best_node = None
            best_score = -1.0
            for v in pool:
                score = cache.get(v)
                if score is None:
                    score = 0.0
                    for u in pred_idx[pred_ptr[v] : pred_ptr[v + 1]]:
                        if bits[u]:
                            score += weight[u]
                    cache[v] = score
                if score > best_score or (
                    score == best_score and (best_node is None or v < best_node)
                ):
                    best_score = score
                    best_node = v
            return best_node

        def assign(node: int, proc: int) -> None:
            ready.discard(node)
            ready_all.discard(node)
            for pool in ready_proc:
                pool.discard(node)
            for cache in scores:
                cache.pop(node, None)
            procs[node] = proc
            supersteps[node] = superstep
            bits = near[proc]
            cache = scores[proc]
            # `node` gains its bit too; its successors are not ready yet,
            # so none of them can hold a cached score to drop
            bits[node] = 1
            for u in pred_idx[pred_ptr[node] : pred_ptr[node + 1]]:
                if not bits[u]:
                    bits[u] = 1
                    for v in succ_idx[succ_ptr[u] : succ_ptr[u + 1]]:
                        cache.pop(v, None)

        while unassigned > 0:
            if end_step and not finish_events:
                if not ready:
                    raise CycleError(
                        f"{unassigned} node(s) can never become ready: "
                        "the graph contains a directed cycle"
                    )
                # open the next superstep: everything that is ready becomes
                # available to every processor
                for pool in ready_proc:
                    pool.clear()
                ready_all = set(ready)
                superstep += 1
                end_step = False
                finish_events = [(0.0, -1)]

            if not finish_events:
                # Nothing running and the step was not explicitly closed:
                # force a new superstep (can happen when every ready node
                # needs cross-processor data).
                end_step = True
                continue

            time_now, _ = finish_events[0]
            # process *all* nodes finishing at this time
            while finish_events and finish_events[0][0] == time_now:
                _, node = heapq.heappop(finish_events)
                if node < 0:
                    continue
                proc = procs[node]
                free[proc] = True
                for succ in succ_idx[succ_ptr[node] : succ_ptr[node + 1]]:
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0:
                        ready.add(succ)
                        # can `succ` still be computed inside this superstep
                        # on the finishing node's processor?  (every
                        # predecessor has finished, so it is assigned)
                        if all(
                            procs[u] == proc or supersteps[u] < superstep
                            for u in pred_idx[pred_ptr[succ] : pred_ptr[succ + 1]]
                        ):
                            ready_proc[proc].add(succ)

            if not end_step:
                progress = True
                while progress:
                    progress = False
                    for proc in range(num_procs):
                        if not (free[proc] and (ready_proc[proc] or ready_all)):
                            continue
                        node = choose_node(proc)
                        if node is None:
                            continue
                        assign(node, proc)
                        unassigned -= 1
                        free[proc] = False
                        heapq.heappush(finish_events, (time_now + work[node], node))
                        progress = True

            idle_procs = sum(
                1 for proc in range(num_procs) if free[proc] and not ready_proc[proc]
            )
            if not ready_all and idle_procs >= idle_threshold:
                end_step = True

        return BspSchedule(
            dag,
            machine,
            np.array(procs, dtype=np.int64),
            np.array(supersteps, dtype=np.int64),
        )
