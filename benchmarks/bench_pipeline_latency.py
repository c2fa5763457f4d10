"""Single-solve latency benchmarks: pass fronts, PK coarsening.

Two sections, one per piece of the latency work:

* **hccs_fronts** — the batched pass fronts of
  :func:`repro.core.kernels.hccs_pass_fronts` vs the serial window walk
  (forced through a huge ``max_steps`` cap, which pins the exact
  move-for-move serial path).  The instance is a shuffled pipeline-layered
  DAG: narrow communication windows scattered over thousands of supersteps
  in scan order, the shape where row-disjoint fronts genuinely batch
  (hundreds of windows per kernel call).  On layer-ordered numbering the
  windows chain-overlap and the relative serial-tail guard falls back —
  that degenerate shape is covered by the never-slower guard tests in
  ``tests/test_kernels.py``, not timed here.
* **pk_coarsening** — exact-DFS contraction probes vs the Pearce–Kelly
  dynamic order on dense DAGs, where the plain DFS re-walks large
  descendant sets per contraction.  Decisions are asserted identical
  before timing; the growth factor across a size doubling must stay below
  the DFS curve.

Results are printed, persisted under ``benchmarks/results/`` and mirrored
into the per-PR record ``BENCH_<n>.json`` (every entry carries a
``speedup`` plus ``num_nodes`` identity so ``bench_report.py`` renders the
rows automatically).

Run directly (``PYTHONPATH=src python benchmarks/bench_pipeline_latency.py``)
or through pytest; shared CI runners can lower the acceptance floors via
the ``REPRO_BENCH_MIN_*`` knobs so load spikes don't gate PRs.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for direct execution
from _bench_utils import save_bench_root, save_json
from bench_hc_refinement import _level_schedule

from repro.core import ComputationalDAG, DagBuilder, csr, kernels
from repro.schedulers import coarsen_dag
from repro.schedulers.base import Budget
from repro.schedulers.comm_hill_climbing import CommScheduleHillClimbing

BENCH_PR_NUMBER = int(os.environ.get("REPRO_BENCH_PR", "9"))

#: (num_nodes, num_layers) for the pass-front comparison
FRONT_CASES = ((30_000, 3_000),)
FRONT_PROCS = 8
#: never-slower floor for the batched fronts (quiet machine: ~1.7x)
FRONT_ACCEPTANCE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_FRONT_SPEEDUP", "1.0")
)
#: (num_nodes, edge density) ladder for the coarsening growth curve; the
#: largest size carries the DFS-vs-PK acceptance assertion
PK_CASES = ((150, 0.15), (300, 0.15))
#: PK must beat the exact DFS at the largest dense size (quiet: >= 3x)
PK_ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_PK_SPEEDUP", "1.0"))
#: PK's time growth across the size doubling must stay below this fraction
#: of the DFS growth (quiet machine: ~0.5)
PK_GROWTH_FRACTION = float(os.environ.get("REPRO_BENCH_MAX_PK_GROWTH_FRACTION", "1.0"))


# ---------------------------------------------------------------------- #
# instance builders
# ---------------------------------------------------------------------- #
def build_shuffled_pipeline_dag(
    num_nodes: int, num_layers: int, out_degree: int = 2, seed: int = 0
) -> ComputationalDAG:
    """Deep pipeline DAG with randomly permuted node numbering.

    Every node in layer ``L+1`` gets one *anchor* predecessor in layer
    ``L`` (so its level equals its layer and the communication windows
    stay narrow — a handful of supersteps out of thousands), plus skip
    edges one and three layers ahead.  Node ids are then shuffled: the
    HCcs scan order visits windows from distant supersteps back to back,
    which is exactly when the scan-order-greedy row-disjoint fronts of
    :func:`repro.core.kernels.hccs_pass_fronts` grow to hundreds of
    windows per batched call.  (Layer-ordered numbering instead yields
    chain-overlapping intervals where only the first window can ever join
    the front — the guard's fallback territory.)
    """
    rng = np.random.default_rng(seed)
    per = num_nodes // num_layers
    num_nodes = per * num_layers
    perm = rng.permutation(num_nodes)
    work = np.empty(num_nodes)
    comm = np.empty(num_nodes)
    work[perm] = rng.integers(1, 6, size=num_nodes).astype(np.float64)
    comm[perm] = rng.integers(1, 4, size=num_nodes).astype(np.float64)
    builder = DagBuilder(name=f"shuffled_pipeline_{num_nodes}")
    builder.add_nodes_array(work, comm)
    starts = np.arange(num_layers + 1) * per
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for layer in range(num_layers - 1):
        layer_nodes = np.arange(starts[layer], starts[layer + 1])
        sources.append(rng.integers(starts[layer], starts[layer + 1], size=per))
        targets.append(np.arange(starts[layer + 1], starts[layer + 2]))
        for gap in (1, 3):
            if layer + gap >= num_layers:
                continue
            src = np.repeat(layer_nodes, out_degree)
            sources.append(src)
            targets.append(
                rng.integers(starts[layer + gap], starts[layer + gap + 1], size=src.size)
            )
    builder.add_edges_array(
        *csr.dedupe_edges(
            num_nodes, perm[np.concatenate(sources)], perm[np.concatenate(targets)]
        )
    )
    return builder.freeze()


def build_dense_dag(num_nodes: int, density: float, seed: int = 0) -> ComputationalDAG:
    """Dense random DAG (upper-triangular Erdős–Rényi) for the coarsener.

    Constant density means O(n^2) edges and large descendant sets — the
    regime where the per-contraction DFS probe goes superlinear while the
    Pearce–Kelly order only touches the position strip between endpoints.
    """
    rng = np.random.default_rng(seed)
    builder = DagBuilder(name=f"dense_{num_nodes}")
    builder.add_nodes_array(
        rng.integers(1, 6, size=num_nodes).astype(np.float64),
        rng.integers(1, 4, size=num_nodes).astype(np.float64),
    )
    mask = np.triu(rng.random((num_nodes, num_nodes)) < density, k=1)
    srcs, tgts = np.nonzero(mask)
    builder.add_edges_array(*csr.dedupe_edges(num_nodes, srcs, tgts))
    return builder.freeze()


# ---------------------------------------------------------------------- #
# section 1: batched HCcs pass fronts
# ---------------------------------------------------------------------- #
def bench_hccs_fronts() -> dict:
    """Batched pass fronts vs the pinned serial walk, move-for-move."""
    entries = []
    for num_nodes, num_layers in FRONT_CASES:
        dag = build_shuffled_pipeline_dag(num_nodes, num_layers)
        schedule = _level_schedule(dag, FRONT_PROCS, g=2)

        front_improver = CommScheduleHillClimbing(record_moves=True)
        start = time.perf_counter()
        front_result = front_improver.improve(schedule)
        front_time = time.perf_counter() - start

        # a finite max_steps cap pins the exact serial window walk (fronts
        # cannot replicate a mid-pass stop, so the kernel never batches)
        serial_improver = CommScheduleHillClimbing(record_moves=True)
        start = time.perf_counter()
        serial_result = serial_improver.improve(
            schedule, Budget(seconds=None, max_steps=10**9)
        )
        serial_time = time.perf_counter() - start

        assert serial_improver.last_moves == front_improver.last_moves, (
            "front accepted-move sequences diverge from the serial walk"
        )
        assert serial_result.comm_schedule == front_result.comm_schedule
        entries.append(
            {
                "num_nodes": dag.num_nodes,
                "num_edges": dag.num_edges,
                "num_layers": num_layers,
                "num_procs": FRONT_PROCS,
                "accepted_moves": len(front_improver.last_moves),
                "final_cost": front_result.cost(),
                "serial_s": serial_time,
                "fronts_s": front_time,
                "speedup": serial_time / front_time,
            }
        )
    return {"cases": entries}


# ---------------------------------------------------------------------- #
# section 2: Pearce-Kelly coarsening growth
# ---------------------------------------------------------------------- #
def bench_pk_coarsening() -> dict:
    """Exact-DFS vs Pearce-Kelly contraction checks on dense DAGs."""
    entries = []
    for num_nodes, density in PK_CASES:
        dag = build_dense_dag(num_nodes, density, seed=1)
        target = max(num_nodes // 10, 8)

        start = time.perf_counter()
        dfs_seq = coarsen_dag(dag, target, method="dfs")
        dfs_time = time.perf_counter() - start

        start = time.perf_counter()
        pk_seq = coarsen_dag(dag, target, method="pk")
        pk_time = time.perf_counter() - start

        # differential: identical contraction decisions, step for step
        assert [(r.kept, r.removed) for r in dfs_seq.records] == [
            (r.kept, r.removed) for r in pk_seq.records
        ], "PK contraction sequence diverges from the DFS reference"
        entries.append(
            {
                "num_nodes": num_nodes,
                "num_edges": dag.num_edges,
                "density": density,
                "num_contractions": len(pk_seq.records),
                "dfs_s": dfs_time,
                "pk_s": pk_time,
                "speedup": dfs_time / pk_time,
            }
        )
    # growth factor across the size doubling: PK must flatten the curve
    growth = {
        "size_ratio": PK_CASES[-1][0] / PK_CASES[0][0],
        "dfs_growth": entries[-1]["dfs_s"] / entries[0]["dfs_s"],
        "pk_growth": entries[-1]["pk_s"] / entries[0]["pk_s"],
    }
    return {"cases": entries, "growth": growth}


_report_cache: dict | None = None


def run_benchmarks() -> dict:
    report = {
        "kernel_backend": kernels.get_backend(),
        "hccs_fronts": bench_hccs_fronts(),
        "pk_coarsening": bench_pk_coarsening(),
    }
    save_json("bench_pipeline_latency", report)
    save_bench_root(BENCH_PR_NUMBER, {"pipeline_latency": report})
    print(f"\nHCcs pass fronts (P={FRONT_PROCS}):")
    for case in report["hccs_fronts"]["cases"]:
        print(
            f"  n={case['num_nodes']:6d} layers={case['num_layers']:5d} "
            f"moves={case['accepted_moves']:5d} "
            f"serial {case['serial_s'] * 1e3:8.1f} ms   "
            f"fronts {case['fronts_s'] * 1e3:8.1f} ms   "
            f"speedup {case['speedup']:5.2f}x"
        )
    section = report["pk_coarsening"]
    print("\nPearce-Kelly coarsening (dense DAGs):")
    for case in section["cases"]:
        print(
            f"  n={case['num_nodes']:5d} edges={case['num_edges']:6d} "
            f"dfs {case['dfs_s'] * 1e3:8.1f} ms   "
            f"pk {case['pk_s'] * 1e3:8.1f} ms   "
            f"speedup {case['speedup']:5.2f}x"
        )
    growth = section["growth"]
    print(
        f"  growth over {growth['size_ratio']:.0f}x size: "
        f"dfs {growth['dfs_growth']:.1f}x vs pk {growth['pk_growth']:.1f}x"
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


def test_hccs_fronts_meet_floor():
    """Batched fronts must beat the serial walk on the front-friendly shape."""
    report = _cached_report()
    for case in report["hccs_fronts"]["cases"]:
        assert case["speedup"] >= FRONT_ACCEPTANCE_SPEEDUP, (
            f"HCcs front speedup {case['speedup']:.2f}x below the "
            f"{FRONT_ACCEPTANCE_SPEEDUP}x floor at {case['num_nodes']} nodes"
        )


def test_pk_coarsening_meets_floor():
    """PK must beat the exact DFS and flatten the growth curve."""
    report = _cached_report()
    largest = report["pk_coarsening"]["cases"][-1]
    assert largest["speedup"] >= PK_ACCEPTANCE_SPEEDUP, (
        f"PK coarsening speedup {largest['speedup']:.2f}x below the "
        f"{PK_ACCEPTANCE_SPEEDUP}x floor at {largest['num_nodes']} nodes"
    )
    growth = report["pk_coarsening"]["growth"]
    assert growth["pk_growth"] <= growth["dfs_growth"] * PK_GROWTH_FRACTION, (
        f"PK growth {growth['pk_growth']:.1f}x exceeds "
        f"{PK_GROWTH_FRACTION} of the DFS growth {growth['dfs_growth']:.1f}x"
    )


if __name__ == "__main__":
    run_benchmarks()
