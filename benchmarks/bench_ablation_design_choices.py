"""Ablation benches for the framework's own design choices.

These are not paper tables; they quantify the framework's own design
decisions on a small instance set: the contribution of each local-search
component, the BSPg superstep-closing threshold, the communication-schedule
policy (eager vs lazy vs optimised), and the multilevel refinement interval.
"""

from __future__ import annotations

import pytest

from _bench_utils import save_table
from repro.analysis import (
    MachineSpec,
    bspg_idle_fraction_ablation,
    comm_schedule_policy_ablation,
    local_search_component_ablation,
    multilevel_refinement_ablation,
)
from repro.dagdb import build_dataset


@pytest.fixture(scope="module")
def ablation_instances():
    return build_dataset("tiny", scale="bench", include_coarse=False)[:4]


def test_ablation_local_search_components(benchmark, ablation_instances):
    machine = MachineSpec(4, g=3, latency=5).build()
    benchmark.pedantic(
        lambda: local_search_component_ablation(ablation_instances[:1], machine),
        rounds=1,
        iterations=1,
    )
    ratios, text = local_search_component_ablation(ablation_instances, machine)
    save_table("ablation_local_search", text)
    # HC never hurts, HCcs never hurts on top of HC
    assert ratios["hc"] <= 1.0 + 1e-9
    assert ratios["hc+hccs"] <= ratios["hc"] + 1e-9


def test_ablation_bspg_idle_fraction(benchmark, ablation_instances):
    machine = MachineSpec(8, g=3, latency=5).build()
    benchmark.pedantic(
        lambda: bspg_idle_fraction_ablation(ablation_instances[:2], machine, fractions=(0.5,)),
        rounds=1,
        iterations=1,
    )
    ratios, text = bspg_idle_fraction_ablation(ablation_instances, machine)
    save_table("ablation_bspg_idle_fraction", text)
    assert ratios[0.5] == pytest.approx(1.0)
    # every threshold produces a finite, comparable schedule; the point of the
    # ablation is the reported spread, not a hard winner
    assert all(ratio > 0 for ratio in ratios.values())
    # the paper's choice of one half is never the outright worst option by a
    # large margin (more than 2x the best threshold tried)
    assert min(ratios.values()) >= 0.5


def test_ablation_comm_schedule_policy(benchmark, ablation_instances):
    machine = MachineSpec(4, g=5, latency=5).build()
    benchmark.pedantic(
        lambda: comm_schedule_policy_ablation(ablation_instances[:1], machine),
        rounds=1,
        iterations=1,
    )
    ratios, text = comm_schedule_policy_ablation(ablation_instances, machine)
    save_table("ablation_comm_schedule_policy", text)
    assert ratios["lazy"] == pytest.approx(1.0)
    # optimising the communication schedule never hurts relative to lazy
    assert ratios["hccs"] <= 1.0 + 1e-9
    assert ratios["ilpcs"] <= 1.0 + 1e-9


def test_ablation_multilevel_refinement_interval(benchmark, ablation_instances):
    machine = MachineSpec(8, g=1, latency=5, numa_delta=4).build()
    subset = ablation_instances[:2]
    result = benchmark.pedantic(
        lambda: multilevel_refinement_ablation(subset, machine, intervals=(1, 5, 20)),
        rounds=1,
        iterations=1,
    )
    ratios, text = result
    save_table("ablation_multilevel_refinement", text)
    assert ratios[5] == pytest.approx(1.0)
    # refining very rarely (interval 20) should not be dramatically better than
    # the paper's choice of 5 -- otherwise the refinement machinery is pointless
    assert ratios[20] >= 0.6
