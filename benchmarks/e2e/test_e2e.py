"""Checks of the end-to-end benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import oracle  # noqa: E402


def _run(out: Path, *args: str) -> tuple[dict, list[dict]]:
    """Run the benchmark; returns its summary line and the records it wrote."""
    proc = subprocess.run(
        [sys.executable, str(RUN), *args, "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = [
        json.loads(path.read_text())
        for path in sorted(out.glob("*.json"))
        if not path.name.endswith(".spans.json")
    ]
    return json.loads(proc.stdout.strip().splitlines()[-1]), records


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """``--quick`` untraced and traced, every workload, pinned costs checked."""
    runs = {}
    for trace in ("0", "1"):
        out = tmp_path_factory.mktemp(f"trace{trace}")
        runs[trace] = _run(out, "--quick", "--check", "--seed", "1", "--trace", trace)
    return runs


def test_quick_prints_every_end_to_end_metric_with_its_unit(spec, quick):
    summary, _ = quick["0"]
    assert summary["correct"] and summary["failed"] == 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            printed = summary["metrics"][f"{workload['name']}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0


def test_quick_trace_prints_every_layer_metric_with_its_unit(spec, quick):
    summary, _ = quick["1"]
    assert summary["correct"] and summary["failed"] == 0
    for workload in spec["workloads"]:
        for metric in spec["per_layer"]:
            printed = summary["metrics"][f"{workload['name']}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]


def test_tail_percentile_is_recorded_on_batch_tiny_only(quick):
    _, records = quick["0"]
    assert {r["workload"]: sorted(r["extra"]) for r in records} == {
        "heur_mid": [], "ilp_small": [], "ml_numa": [], "batch_tiny": ["solve_s_p98"],
    }


def test_compare_flags_any_same_seed_cost_rise(quick):
    _, parent = quick["0"]
    change = copy.deepcopy(parent)
    assert compare.cost_rises(parent, change) == []
    change[0]["cases"][0]["cost"] += 1
    rises = compare.cost_rises(parent, change)
    assert len(rises) == 1 and change[0]["cases"][0]["key"] in rises[0]
    # the same case at another seed is not the same instance
    change[0]["seed"] += 1
    assert compare.cost_rises(parent, change) == []


def test_trace_leaves_result_bytes_and_costs_identical(quick):
    _, plain = quick["0"]
    _, traced = quick["1"]
    assert len(plain) == len(traced) == 4
    by_workload = {record["workload"]: record for record in plain}
    for record in traced:
        untraced = by_workload[record["workload"]]
        assert [(c["key"], c["digest"], c["cost"]) for c in record["cases"]] == [
            (c["key"], c["digest"], c["cost"]) for c in untraced["cases"]
        ]


def test_oracle_catches_a_corrupted_gamma():
    from repro.api import ScheduleRequest, SchedulerSpec, SchedulingService
    from repro.core.machine import MachineSpec
    from repro.dagdb import build_fft_dag

    dag = build_fft_dag(16, track_roles=False).dag
    machine = MachineSpec(4, g=3, latency=5)
    spec = SchedulerSpec("framework_heuristics", {"local_search_seconds": None})
    result = SchedulingService(cache_size=0).solve(ScheduleRequest(dag, machine, spec))
    built = machine.build()
    payload = copy.deepcopy(result.schedule_dict())
    assert oracle.check(dag, built, payload, result.cost) == []

    sources, targets = dag.edge_arrays()
    gamma = payload.get("comm_schedule") or [
        list(step)
        for step in oracle.lazy_gamma(
            list(zip(sources.tolist(), targets.tolist())),
            payload["procs"],
            payload["supersteps"],
        )
    ]
    assert gamma, "the instance must communicate for this check to mean anything"
    # a transfer dropped: its consumer never receives the value
    dropped = dict(payload, comm_schedule=gamma[1:])
    assert oracle.check(dag, built, dropped, result.cost)
    # a transfer moved past the superstep that needs the value
    late = [list(step) for step in gamma]
    late[0][3] = max(payload["supersteps"]) + 1
    assert oracle.check(dag, built, dict(payload, comm_schedule=late), result.cost)
    # a valid schedule whose claimed cost is wrong
    assert oracle.check(dag, built, payload, result.cost + 1)
