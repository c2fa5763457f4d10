"""Benchmark: cold vs warm persistent-store experiment grids (repro.store).

Runs the same small experiment grid twice against one content-addressed
result store (:class:`repro.store.ResultStore`):

* **cold** — the store is empty; every request is computed and persisted;
* **warm** — a fresh runner re-runs the identical grid against the filled
  store, which must answer every request from disk (zero scheduler
  invocations) and reproduce the rendered table byte-for-byte.

The recorded payload keeps the cold/warm wall-clock times, their ratio
(``speedup`` — what resuming a killed grid run saves), and the warm-run
store **hit rate** (store hits / requests; 1.0 by construction when resume
works).  Results are persisted under ``benchmarks/results/``.

Run directly (``PYTHONPATH=src python benchmarks/bench_store_resume.py``)
or through pytest; the pytest entry asserts the resume contract (zero warm
misses, byte-identical tables) rather than a wall-clock floor, so shared
CI runners cannot flake it.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for direct execution
from _bench_utils import save_json

from repro.analysis.experiments import ExperimentRunner, run_grid
from repro.analysis.tables import table1_no_numa_improvements
from repro.core.machine import MachineSpec
from repro.dagdb import build_dataset
from repro.schedulers.pipeline import PipelineConfig

#: budget-free configuration: deterministic schedulers, replayable bit-for-bit
BUDGET_FREE = PipelineConfig(
    use_ilp=False, use_comm_ilp=False, local_search_seconds=None
)


def _grid():
    instances = build_dataset("small", scale="bench", include_coarse=False)[:3]
    specs = [MachineSpec(p, g, 5.0) for p in (4, 8) for g in (1.0, 5.0)]
    return instances, specs


def run_benchmark(store_root: str | Path) -> dict:
    """Cold + warm grid runs against ``store_root``; returns the payload."""
    instances, specs = _grid()

    cold_runner = ExperimentRunner(config=BUDGET_FREE, store=store_root)
    start = time.perf_counter()
    cold_records = run_grid(cold_runner, instances, specs)
    cold_s = time.perf_counter() - start
    cold_info = cold_runner.service.cache_info()

    warm_runner = ExperimentRunner(config=BUDGET_FREE, store=store_root)
    start = time.perf_counter()
    warm_records = run_grid(warm_runner, instances, specs)
    warm_s = time.perf_counter() - start
    warm_info = warm_runner.service.cache_info()

    _, cold_table = table1_no_numa_improvements(cold_records)
    _, warm_table = table1_no_numa_improvements(warm_records)
    requests = warm_info["hits"] + warm_info["misses"]
    return {
        "instances": len(instances),
        "machine_points": len(specs),
        "requests": requests,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "cold_misses": cold_info["misses"],
        "warm_misses": warm_info["misses"],
        "store_hits": warm_info["store_hits"],
        "hit_rate": warm_info["store_hits"] / requests if requests else 0.0,
        "tables_byte_identical": warm_table.encode() == cold_table.encode(),
    }


# ---------------------------------------------------------------------- #
# pytest entry points (the resume contract, not wall-clock)
# ---------------------------------------------------------------------- #
def test_warm_store_resume_contract(tmp_path):
    payload = run_benchmark(tmp_path)
    assert payload["warm_misses"] == 0
    assert payload["hit_rate"] == 1.0
    assert payload["tables_byte_identical"] is True
    assert payload["cold_misses"] == payload["requests"]


# ---------------------------------------------------------------------- #
def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as root:
        payload = run_benchmark(root)
    print(
        f"store resume: {payload['requests']} requests, "
        f"cold {payload['cold_s']:.2f}s -> warm {payload['warm_s']:.2f}s "
        f"({payload['speedup']:.1f}x), hit rate {payload['hit_rate']:.0%}, "
        f"tables byte-identical: {payload['tables_byte_identical']}"
    )
    save_json("bench_store_resume", payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
