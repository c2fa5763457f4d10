"""Micro-benchmarks: batched HC / HCcs refiners vs. the retained seed walkers.

Measures the end-to-end hill-climbing refinement (``HC``) and the
communication-schedule local search (``HCcs``) on layered random DAGs:

* **seed** — the retained probe-and-rollback walkers in
  :mod:`repro.schedulers.reference`, which pay two full ``apply_move`` calls
  per rejected candidate (HC) and a copy-mutate-restore row pass per
  candidate phase (HCcs);
* **vectorized** — the batched read-only neighbourhood evaluation of
  :class:`repro.schedulers.hill_climbing.HillClimbingImprover` and the
  row-maxima candidate evaluation of
  :class:`repro.schedulers.comm_hill_climbing.CommScheduleHillClimbing`.

Every comparison is **differential**: the two sides must produce identical
accepted-move sequences and identical final schedules before their timings
are recorded (``record_moves=True`` on both improvers).  The HC runs bound
the number of accepted moves (``max_steps``) exactly like the multilevel
refinement bursts do, so the reference finishes in benchmark-friendly time;
both sides stop after the same move by construction.

Results are printed, persisted under ``benchmarks/results/`` and mirrored
into the stable per-PR record ``BENCH_<n>.json`` at the repo root.

Run directly (``PYTHONPATH=src python benchmarks/bench_hc_refinement.py``)
or through pytest; the pytest entry point asserts the >= 5x acceptance
threshold on the 100k-node / 8-processor HC configuration.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for direct execution
from _bench_utils import save_bench_root, save_json
from bench_dag_kernels import BENCH_PR_NUMBER, build_layered_dag

from repro.core import BspMachine, BspSchedule, ComputationalDAG, DagBuilder
from repro.core import csr, kernels
from repro.core.csr import topological_levels
from repro.schedulers.comm_hill_climbing import CommScheduleHillClimbing
from repro.schedulers.hill_climbing import HillClimbingImprover
from repro.schedulers.reference import (
    CommScheduleHillClimbingReference,
    HillClimbingImproverReference,
)

#: (num_nodes, max accepted moves) per HC benchmark case; the largest case
#: carries the acceptance assertion
HC_CASES = ((10_000, 200), (100_000, 300))
HC_ACCEPTANCE_NODES = 100_000
BENCH_PROCS = 8
# >= 5x is the acceptance target on a quiet machine; shared CI runners can
# override the floor (REPRO_BENCH_MIN_HC_SPEEDUP) so load spikes don't gate PRs
HC_ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_HC_SPEEDUP", "5.0"))
#: never-slower floor for HCcs (quiet machine: 1.0; CI lowers it for noise)
HCCS_ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_HCCS_SPEEDUP", "1.0"))
#: (num_nodes, passes) for the HCcs comparison (skip-level edges give the
#: transfers non-trivial feasible windows)
HCCS_CASES = ((30_000, 1),)


def _level_schedule(dag: ComputationalDAG, procs: int, g: float) -> BspSchedule:
    """Valid level-synchronous schedule: supersteps = levels, round-robin procs."""
    machine = BspMachine.uniform(procs, g=g, latency=5)
    levels = topological_levels(
        dag.num_nodes, dag.succ_indptr, dag.succ_indices, dag.pred_indptr
    )
    assignment = np.arange(dag.num_nodes, dtype=np.int64) % procs
    return BspSchedule(
        dag, machine, assignment, levels.astype(np.int64), validate=False
    )


def build_skip_layered_dag(
    num_nodes: int, num_layers: int = 48, out_degree: int = 2, seed: int = 0
) -> ComputationalDAG:
    """Layered DAG whose edges also skip two layers ahead.

    Values crossing processors are then needed several supersteps after they
    are produced, so their communication windows have width > 1 — the case
    ``HCcs`` actually optimises.
    """
    rng = np.random.default_rng(seed)
    layer_of = np.sort(rng.integers(0, num_layers, size=num_nodes))
    builder = DagBuilder(name=f"skip_layered_{num_nodes}")
    builder.add_nodes_array(
        rng.integers(1, 6, size=num_nodes).astype(np.float64),
        rng.integers(1, 4, size=num_nodes).astype(np.float64),
    )
    starts = np.searchsorted(layer_of, np.arange(num_layers + 1))
    for layer in range(num_layers - 1):
        src_lo, src_hi = int(starts[layer]), int(starts[layer + 1])
        if src_hi == src_lo:
            continue
        for gap in (1, 3):
            dst_layer = layer + gap
            if dst_layer >= num_layers:
                continue
            dst_lo, dst_hi = int(starts[dst_layer]), int(starts[dst_layer + 1])
            if dst_hi == dst_lo:
                continue
            sources = np.repeat(np.arange(src_lo, src_hi), out_degree)
            targets = rng.integers(dst_lo, dst_hi, size=sources.size)
            builder.add_edges_array(*csr.dedupe_edges(num_nodes, sources, targets))
    return builder.freeze()


def bench_hc() -> dict:
    """Seed vs batched HC with the differential accepted-move assert."""
    entries = []
    for num_nodes, max_steps in HC_CASES:
        dag = build_layered_dag(num_nodes)
        schedule = _level_schedule(dag, BENCH_PROCS, g=5)
        seed_improver = HillClimbingImproverReference(
            max_passes=1, max_steps=max_steps, record_moves=True
        )
        start = time.perf_counter()
        seed_result = seed_improver.improve(schedule)
        seed_time = time.perf_counter() - start

        vec_improver = HillClimbingImprover(
            max_passes=1, max_steps=max_steps, record_moves=True
        )
        start = time.perf_counter()
        vec_result = vec_improver.improve(schedule)
        vec_time = time.perf_counter() - start

        # differential: identical accepted-move sequences and final (π, τ)
        assert seed_improver.last_moves == vec_improver.last_moves, (
            "HC accepted-move sequences diverge"
        )
        assert np.array_equal(seed_result.procs, vec_result.procs)
        assert np.array_equal(seed_result.supersteps, vec_result.supersteps)
        entries.append(
            {
                "num_nodes": num_nodes,
                "num_edges": dag.num_edges,
                "num_procs": BENCH_PROCS,
                "max_steps": max_steps,
                "accepted_moves": len(vec_improver.last_moves),
                "final_cost": vec_result.cost(),
                "seed_s": seed_time,
                "vectorized_s": vec_time,
                "speedup": seed_time / vec_time,
            }
        )
    return {"cases": entries}


def bench_hccs() -> dict:
    """Seed vs vectorized HCcs with the differential accepted-move assert."""
    entries = []
    for num_nodes, passes in HCCS_CASES:
        dag = build_skip_layered_dag(num_nodes)
        schedule = _level_schedule(dag, BENCH_PROCS, g=2)
        seed_improver = CommScheduleHillClimbingReference(
            max_passes=passes, record_moves=True
        )
        start = time.perf_counter()
        seed_result = seed_improver.improve(schedule)
        seed_time = time.perf_counter() - start

        vec_improver = CommScheduleHillClimbing(max_passes=passes, record_moves=True)
        start = time.perf_counter()
        vec_result = vec_improver.improve(schedule)
        vec_time = time.perf_counter() - start

        assert seed_improver.last_moves == vec_improver.last_moves, (
            "HCcs accepted-move sequences diverge"
        )
        assert seed_result.comm_schedule == vec_result.comm_schedule
        entries.append(
            {
                "num_nodes": num_nodes,
                "num_edges": dag.num_edges,
                "num_procs": BENCH_PROCS,
                "passes": passes,
                "accepted_moves": len(vec_improver.last_moves),
                "final_cost": vec_result.cost(),
                "seed_s": seed_time,
                "vectorized_s": vec_time,
                "speedup": seed_time / vec_time,
            }
        )
    return {"cases": entries}


_report_cache: dict | None = None


def run_benchmarks() -> dict:
    report = {
        "kernel_backend": kernels.get_backend(),
        "hc": bench_hc(),
        "hccs": bench_hccs(),
    }
    save_json("bench_hc_refinement", report)
    save_bench_root(BENCH_PR_NUMBER, {"hc_refinement": report})
    for label, section in (("HC", report["hc"]), ("HCcs", report["hccs"])):
        print(f"\n{label} (seed walker vs batched evaluation, P={BENCH_PROCS}):")
        for case in section["cases"]:
            print(
                f"  n={case['num_nodes']:7d} moves={case['accepted_moves']:5d} "
                f"seed {case['seed_s'] * 1e3:9.1f} ms   "
                f"vectorized {case['vectorized_s'] * 1e3:8.1f} ms   "
                f"speedup {case['speedup']:6.1f}x"
            )
    return report


# ---------------------------------------------------------------------- #
# pytest entry points
# ---------------------------------------------------------------------- #
def _cached_report() -> dict:
    global _report_cache
    if _report_cache is None:
        _report_cache = run_benchmarks()
    return _report_cache


def test_hc_refinement_meets_acceptance_speedup():
    """Batched HC must beat the seed walker >= 5x at 100k nodes / 8 procs."""
    report = _cached_report()
    big = next(
        c for c in report["hc"]["cases"] if c["num_nodes"] == HC_ACCEPTANCE_NODES
    )
    assert big["speedup"] >= HC_ACCEPTANCE_SPEEDUP, (
        f"HC refinement speedup {big['speedup']:.1f}x below the "
        f"{HC_ACCEPTANCE_SPEEDUP}x target at {HC_ACCEPTANCE_NODES} nodes"
    )


def test_hccs_never_slower_than_seed():
    """The vectorized HCcs must at least match the seed walker."""
    report = _cached_report()
    for case in report["hccs"]["cases"]:
        assert case["speedup"] >= HCCS_ACCEPTANCE_SPEEDUP, (
            f"HCcs speedup {case['speedup']:.2f}x below the "
            f"{HCCS_ACCEPTANCE_SPEEDUP}x floor at {case['num_nodes']} nodes"
        )


if __name__ == "__main__":
    run_benchmarks()
