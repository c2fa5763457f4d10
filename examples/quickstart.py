#!/usr/bin/env python
"""Quickstart: schedule a small computational DAG on a BSP machine.

This example mirrors Figure 1 of the paper: a small two-layer DAG is
scheduled on two processors, and the resulting BSP schedule (supersteps,
per-processor computation phases and the communication phases in between)
is printed together with its cost breakdown.  The framework pipeline is then
compared against the Cilk and HDagg baselines.

Everything runs through the service API: each scheduler is a declarative
``SchedulerSpec`` inside a ``ScheduleRequest``, and one ``SchedulingService``
answers the whole batch (with the framework's per-stage cost trace on its
``ScheduleResult``).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import BspMachine, PipelineConfig
from repro.api import ScheduleRequest, SchedulerSpec, SchedulingService
from repro.core import ComputationalDAG
from repro.io import render_cost_table, render_schedule_text


def build_example_dag() -> ComputationalDAG:
    """A small DAG in the spirit of Figure 1 (9 operations in two layers)."""
    edges = [
        (0, 6), (1, 6), (1, 7), (2, 7), (3, 7), (4, 8), (5, 8),
        (6, 9), (7, 9), (7, 10), (8, 10), (8, 11),
    ]
    # the second layer (nodes 6-8) gets a bit more work and heavier outputs
    work = [1, 1, 1, 1, 1, 1, 3, 3, 3, 1, 1, 1]
    comm = [1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1]
    return ComputationalDAG.from_edge_arrays(
        12,
        [u for u, _ in edges],
        [v for _, v in edges],
        work_weights=work,
        comm_weights=comm,
        name="figure1_example",
    )


def main() -> None:
    dag = build_example_dag()
    machine = BspMachine.uniform(2, g=2, latency=3)
    print(f"DAG '{dag.name}': {dag.num_nodes} nodes, {dag.num_edges} edges")
    print(f"Machine: {machine.describe()}\n")

    service = SchedulingService()
    specs = {
        "cilk": SchedulerSpec("cilk", {"seed": 0}),
        "hdagg": SchedulerSpec("hdagg"),
        "framework": SchedulerSpec("framework", {"config": PipelineConfig.fast()}),
    }
    results = service.solve_many(
        [
            ScheduleRequest(dag=dag, machine=machine, scheduler=spec)
            for spec in specs.values()
        ]
    )
    by_name = dict(zip(specs, results))

    framework = by_name["framework"]
    print(render_schedule_text(framework.to_schedule()))
    print()

    print(render_cost_table({name: r.to_schedule() for name, r in by_name.items()}))
    print()
    stages = framework.stages
    print("Pipeline stage costs:")
    for name, cost in stages.initial.items():
        print(f"  initial ({name:<11s}): {cost:8.2f}")
    print(f"  after HC + HCcs      : {stages.after_local_search:8.2f}")
    print(f"  after ILP stage      : {stages.after_ilp_assignment:8.2f}")
    print(f"  final                : {stages.final:8.2f}")


if __name__ == "__main__":
    main()
