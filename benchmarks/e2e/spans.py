"""Out-of-program span tracing for the end-to-end benchmark.

(Named ``spans`` rather than ``trace`` so that it does not shadow the
standard-library module of that name.)

:class:`Tracer` wraps the public entry points of every ``repro`` layer —
service, initialisers, baselines, local search, ILP stages and backend,
multilevel coarsening, dispatched kernels, cost and validation — by
patching the attributes their callers look up, so nothing under ``src/``
changes.  Each call becomes one span ``(name, start, end, parent, solve,
attrs)``; spans of one timed solve share the index of that solve's root
span as their solve id.  Spans live in memory and are written out once,
when the run ends.

A layer's *self* time is its span's duration minus the time covered by its
direct children; *inclusive* time is the whole duration.  Hooks attach the
counts a layer exposes at its boundary (nodes scanned and moves accepted by
a kernel pass, model size and exit status of a MILP, contractions made,
whether an ILP stage lowered the cost).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["PER_LAYER", "Tracer", "layer_metrics"]

_EPS = 1e-9


# ---------------------------------------------------------------------- #
# hooks: (tracer, args, result) -> attrs recorded on the span
# ---------------------------------------------------------------------- #
def _hc_pass(_tracer, args, result):
    return {"nodes": args[2] - args[1], "accepted": result[0]}


def _hccs_pass(_tracer, args, result):
    return {"windows": args[2] - args[1], "accepted": result[0]}


def _hccs_pass_fronts(_tracer, args, result):
    return {"windows": int(args[0].movable.size), "accepted": result[0]}


def _milp(_tracer, args, result):
    problem = args[0]
    # scipy reports a HiGHS node limit as status 4 with "Solution limit
    # reached" (HiGHS model status 16), not as status 1
    limit = result.status == 1 or "limit reached" in result.message.lower()
    return {
        "vars": problem.num_variables,
        "rows": problem.num_constraints,
        "limit": int(limit),
    }


def _ilp_stage(tracer, args, result):
    # both costs are normally cached by the pipeline already; any
    # evaluation forced here is kept out of the spans
    with tracer.paused():
        improved = result.cost() < args[1].cost() - _EPS
    return {"improved": int(improved)}


def _coarsen(_tracer, _args, result):
    return {"contractions": result.num_contractions}


def _targets():
    """``(owner, attribute, span name, hook)`` for every wrapped entry point."""
    from repro.api import ScheduleRequest, ScheduleResult, SchedulingService
    from repro.core import kernels
    from repro.core import schedule as core_schedule
    from repro.core import validation
    from repro.schedulers.bsp_greedy import BspGreedyScheduler
    from repro.schedulers.cilk import CilkScheduler
    from repro.schedulers.comm_hill_climbing import CommScheduleHillClimbing
    from repro.schedulers.hdagg import HDaggScheduler
    from repro.schedulers.hill_climbing import HillClimbingImprover
    from repro.schedulers.ilp import (
        IlpCommScheduleImprover,
        IlpFullImprover,
        IlpInitScheduler,
        IlpPartialImprover,
        MilpProblem,
    )
    from repro.schedulers.listsched import EtfScheduler
    from repro.schedulers.multilevel import scheduler as ml_scheduler
    from repro.schedulers.pipeline import SchedulingPipeline
    from repro.schedulers.source_heuristic import SourceScheduler

    return [
        (SchedulingService, "solve", "api.solve", None),
        (ScheduleRequest, "fingerprint", "api.fingerprint", None),
        (ScheduleResult, "from_schedule", "api.result", None),
        (BspGreedyScheduler, "schedule", "init.bsp_greedy", None),
        (SourceScheduler, "schedule", "init.source", None),
        (IlpInitScheduler, "schedule", "ilp.init", None),
        (CilkScheduler, "schedule", "baseline.cilk", None),
        (EtfScheduler, "schedule", "baseline.etf", None),
        (HDaggScheduler, "schedule", "baseline.hdagg", None),
        (HillClimbingImprover, "improve", "hc.improve", None),
        (HillClimbingImprover, "refine_assignment", "hc.refine", None),
        (CommScheduleHillClimbing, "improve", "hccs.improve", None),
        (IlpFullImprover, "improve", "ilp.full", _ilp_stage),
        (IlpPartialImprover, "improve", "ilp.part", _ilp_stage),
        (IlpCommScheduleImprover, "improve", "ilp.cs", _ilp_stage),
        (MilpProblem, "solve", "ilp.milp", _milp),
        # the service calls schedule_with_stages; only the multilevel
        # scheduler's coarse-level base solve goes through .schedule
        (SchedulingPipeline, "schedule", "ml.base", None),
        (ml_scheduler, "coarsen_dag", "ml.coarsen", _coarsen),
        (kernels, "hc_pass", "kernel.hc_pass", _hc_pass),
        (kernels, "hccs_pass", "kernel.hccs_pass", _hccs_pass),
        (kernels, "hccs_pass_fronts", "kernel.hccs_pass_fronts", _hccs_pass_fronts),
        (kernels, "pk_order", "kernel.pk_order", None),
        (kernels, "coarsen_reach", "kernel.coarsen_reach", None),
        (core_schedule, "evaluate_cost", "core.cost", None),
        (core_schedule, "schedule_violations", "core.validate", None),
        (validation, "schedule_violations", "core.validate", None),
    ]


class Tracer:
    """Records spans around the wrapped entry points while recording is on."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, solve, attrs]`` per span, call order
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active = False
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Patch every target; spans are recorded only inside :meth:`recording`."""
        for owner, attribute, name, hook in _targets():
            raw = inspect.getattr_static(owner, attribute)
            own = attribute in vars(owner)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                patched = self._wrap(raw, name, hook)
            self._patches.append((owner, attribute, raw, own))
            setattr(owner, attribute, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute (inherited ones are removed again)."""
        for owner, attribute, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    @contextmanager
    def recording(self):
        """Record spans for the calls made inside the block."""
        self._active = True
        try:
            yield
        finally:
            self._active = False

    @contextmanager
    def paused(self):
        """Suspend recording (for the tracer's own calls into the program)."""
        active, self._active = self._active, False
        try:
            yield
        finally:
            self._active = active

    # ------------------------------------------------------------------ #
    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            solve = spans[parent][4] if parent >= 0 else index
            span = [name, 0.0, 0.0, parent, solve, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(tracer, args, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def per_solve(self) -> dict[int, dict[str, float]]:
        """``{solve id: {"<span>:self|incl|calls|<attr>": value}}``.

        Attrs of a span whose direct parent reports the same attrs (the
        serial tail ``hccs_pass`` inside ``hccs_pass_fronts``) are already
        counted by the parent and are skipped.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _solve, _attrs in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, solve, attrs) in enumerate(spans):
            row = totals[solve]
            duration = end - start
            row[f"{name}:self"] += duration - covered[index]
            row[f"{name}:incl"] += duration
            row[f"{name}:calls"] += 1
            if attrs:
                parent_attrs = spans[parent][5] if parent >= 0 else None
                if parent_attrs and parent_attrs.keys() == attrs.keys():
                    continue
                for key, value in attrs.items():
                    row[f"{name}:{key}"] += value
        return totals

    def write(self, path: Path) -> None:
        """Dump the spans as JSON (``[name, start, end, parent, solve, attrs]``)."""
        path.write_text(json.dumps(self.spans), encoding="utf-8")


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
#: ``metric: (unit, span names, field)``.  The unit says how the field's
#: per-suite-pass total is reported: ``s`` as seconds, ``%`` as a share of
#: the traced suite time, ``count`` as is, ``ratio`` as numerator field /
#: denominator field.  Layers that some workload bypasses are reported as
#: shares and counts, which read 0 there; plain seconds are kept for the
#: layers every workload runs.  The end-to-end metric each one should move
#: is listed in README.md.
PER_LAYER: dict[str, tuple] = {
    "api.solve_self_s": ("s", ("api.solve",), "self"),
    "api.fingerprint_s": ("s", ("api.fingerprint",), "self"),
    "api.result_s": ("s", ("api.result",), "self"),
    "init.bsp_greedy_s": ("s", ("init.bsp_greedy",), "self"),
    "init.source_s": ("s", ("init.source",), "self"),
    "hc.improve_s": ("s", ("hc.improve",), "self"),
    "hccs.improve_s": ("s", ("hccs.improve",), "self"),
    "kernel.hc_pass.s": ("s", ("kernel.hc_pass",), "self"),
    "kernel.hccs.s": ("s", ("kernel.hccs_pass", "kernel.hccs_pass_fronts"), "self"),
    "core.cost_s": ("s", ("core.cost",), "self"),
    "core.validate_s": ("s", ("core.validate",), "self"),
    "init.ilp_init_pct": ("%", ("ilp.init",), "incl"),
    "ilp.milp_pct": ("%", ("ilp.milp",), "incl"),
    "ilp.init_self_pct": ("%", ("ilp.init",), "self"),
    "ilp.full_self_pct": ("%", ("ilp.full",), "self"),
    "ilp.part_self_pct": ("%", ("ilp.part",), "self"),
    "ilp.cs_self_pct": ("%", ("ilp.cs",), "self"),
    "ml.coarsen_pct": ("%", ("ml.coarsen",), "incl"),
    "ml.base_pct": ("%", ("ml.base",), "incl"),
    "hc.refine_pct": ("%", ("hc.refine",), "incl"),
    "kernel.pk_order_pct": ("%", ("kernel.pk_order",), "self"),
    "baseline.cilk_pct": ("%", ("baseline.cilk",), "incl"),
    "baseline.etf_pct": ("%", ("baseline.etf",), "incl"),
    "baseline.hdagg_pct": ("%", ("baseline.hdagg",), "incl"),
    "kernel.hc_pass.calls": ("count", ("kernel.hc_pass",), "calls"),
    "kernel.hc_pass.nodes": ("count", ("kernel.hc_pass",), "nodes"),
    "kernel.hccs_pass.calls": ("count", ("kernel.hccs_pass",), "calls"),
    "kernel.hccs_pass_fronts.calls": ("count", ("kernel.hccs_pass_fronts",), "calls"),
    "kernel.pk_order.calls": ("count", ("kernel.pk_order",), "calls"),
    "core.cost_calls": ("count", ("core.cost",), "calls"),
    "hc.refine_calls": ("count", ("hc.refine",), "calls"),
    "ml.contractions": ("count", ("ml.coarsen",), "contractions"),
    "ilp.milp_calls": ("count", ("ilp.milp",), "calls"),
    "ilp.milp_vars": ("count", ("ilp.milp",), "vars"),
    "ilp.milp_rows": ("count", ("ilp.milp",), "rows"),
    "ilp.limit_stops": ("count", ("ilp.milp",), "limit"),
    "kernel.hc_pass.accept_ratio": ("ratio", ("kernel.hc_pass",), ("accepted", "nodes")),
    "kernel.hccs.accept_ratio": ("ratio", ("kernel.hccs_pass", "kernel.hccs_pass_fronts"), ("accepted", "windows")),
    "ilp.improved_frac": ("ratio", ("ilp.full", "ilp.part", "ilp.cs"), ("improved", "calls")),
}

#: reported with the layer metrics: traced suite_s / untraced suite_s
OVERHEAD = "trace.overhead"


def layer_metrics(suite: dict[str, float], traced_suite_s: float, overhead: float) -> dict:
    """Per-layer metric values from the per-suite span totals ``suite``."""
    metrics: dict[str, dict] = {}
    for metric, (unit, names, field) in PER_LAYER.items():
        if unit == "ratio":
            numerator, denominator = field
            top = sum(suite.get(f"{n}:{numerator}", 0.0) for n in names)
            bottom = sum(suite.get(f"{n}:{denominator}", 0.0) for n in names)
            value = top / bottom if bottom else 0.0
        else:
            value = sum(suite.get(f"{n}:{field}", 0.0) for n in names)
            if unit == "%":
                value = 100.0 * value / traced_suite_s
        metrics[metric] = {"value": value, "unit": unit}
    metrics[OVERHEAD] = {"value": overhead, "unit": "ratio"}
    return metrics
