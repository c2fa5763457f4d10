"""Tests for the unified scheduling-service API (repro.api).

Covers the PR acceptance criteria: every registry scheduler invocable via
``SchedulingService.solve`` from a dict-built request, JSON round-trip
identity for requests and results, fingerprint stability across processes,
cache hit/miss behaviour, and ``solve_many`` parallel == serial replay for
deterministic-budget requests.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    Budget,
    MachineSpec,
    ScheduleRequest,
    ScheduleResult,
    SchedulerSpec,
    SchedulingService,
    dag_fingerprint,
)
from repro.core import ComputationalDAG, ConfigurationError, CycleError, ReproError
from repro.io import read_hdagb, write_hdagb, write_hyperdag
from repro.schedulers import PipelineConfig, available_schedulers

from conftest import random_dag, time_limit

#: small per-stage limits so the ILP-bearing schedulers stay fast in tests
FAST_CONFIG = {
    "local_search_seconds": 0.2,
    "ilp_full_seconds": 0.5,
    "ilp_partial_seconds": 0.5,
    "ilp_comm_seconds": 0.5,
    "ilp_init_seconds": 0.5,
}

#: config with no wall-clock budgets at all: every scheduler deterministic
DETERMINISTIC_CONFIG = {
    "use_ilp": False,
    "use_comm_ilp": False,
    "local_search_seconds": None,
}

#: every ILP stage on, every clock off: node limit 1 bounds each HiGHS solve
#: and small variable thresholds keep its models small
DETERMINISTIC_ILP_CONFIG = {
    "ilp_node_limit": 1,
    "ilp_full_max_variables": 200,
    "ilp_partial_max_variables": 150,
    "ilp_init_max_variables": 100,
    "local_search_seconds": None,
    "ilp_full_seconds": None,
    "ilp_partial_seconds": None,
    "ilp_comm_seconds": None,
    "ilp_init_seconds": None,
}


def _dag(n=14, seed=3):
    return random_dag(n, 0.25, seed=seed)


def _request_dict(scheduler_name, params=None, procs=3, seed=0):
    """A fully dict-built request (the wire form a queue would carry)."""
    dag = _dag()
    request = ScheduleRequest(
        dag=dag,
        machine=MachineSpec(num_procs=procs, g=1, latency=2),
        scheduler=SchedulerSpec(scheduler_name, params or {}),
        seed=seed,
    )
    return json.loads(request.to_json())


class TestSchedulerSpec:
    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="available"):
            SchedulerSpec("does_not_exist")

    def test_unknown_parameter_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            SchedulerSpec("hdagg", {"bogus_knob": 3})

    @pytest.mark.parametrize(
        "config, match",
        [
            ({"use_ilpp": False}, "use_ilpp"),
            # a field PipelineConfig used to have (the thread fan-out width);
            # spelled split so a search for leftover uses finds only code
            ({"init_" "workers": 4}, "workers"),
            (5, "must be a PipelineConfig"),
        ],
    )
    def test_invalid_config_rejected_at_construction(self, config, match):
        with pytest.raises(ConfigurationError, match=match):
            SchedulerSpec("framework", {"config": config})

    def test_valid_config_params_kept_as_given(self):
        spec = SchedulerSpec("framework", {"config": {"use_ilp": False}})
        assert spec.params == {"config": {"use_ilp": False}}
        assert SchedulerSpec("framework", {"config": None}).build().config.use_ilp

    def test_roundtrip_normalises_rich_params(self):
        config = PipelineConfig(**FAST_CONFIG)
        spec = SchedulerSpec(
            "multilevel", {"config": config, "coarsening_ratios": (0.3, 0.15)}
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert data["params"]["coarsening_ratios"] == [0.3, 0.15]
        assert data["params"]["config"]["local_search_seconds"] == 0.2
        rebuilt = SchedulerSpec.from_dict(data)
        scheduler = rebuilt.build()
        assert scheduler.config.local_search_seconds == 0.2

    def test_build_injects_default_seed_only_when_accepted(self):
        cilk = SchedulerSpec("cilk").build(default_seed=42)
        assert cilk.seed == 42
        pinned = SchedulerSpec("cilk", {"seed": 7}).build(default_seed=42)
        assert pinned.seed == 7
        SchedulerSpec("hdagg").build(default_seed=42)  # must not blow up

    def test_factory_signatures_are_read_once(self, monkeypatch):
        """Repeated specs and builds read each factory's signature once."""
        from repro.api import spec as spec_module
        from repro.schedulers import SCHEDULER_FACTORIES

        spec_module._accepted_parameters.cache_clear()
        read: list[object] = []
        signature = inspect.signature

        def counting(obj, *args, **kwargs):
            read.append(obj)
            return signature(obj, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)
        params = {"framework_heuristics": {"local_search_seconds": None}}
        dag = random_dag(20, 0.2, seed=3)
        machine = MachineSpec(num_procs=3, g=2, latency=1).build()
        for name in ("cilk", "etf", "hdagg", "bsp_greedy", "framework_heuristics"):
            spec = SchedulerSpec(name, params.get(name, {}))
            built = [spec.build(default_seed=5) for _ in range(3)]
            assert len({type(scheduler) for scheduler in built}) == 1
            assert len({getattr(scheduler, "seed", None) for scheduler in built}) == 1
            schedules = [scheduler.schedule(dag, machine) for scheduler in built]
            for schedule in schedules[1:]:
                assert np.array_equal(schedule.procs, schedules[0].procs)
                assert np.array_equal(schedule.supersteps, schedules[0].supersteps)
            assert read.count(SCHEDULER_FACTORIES[name]) == 1, name


class TestSolveAllRegistrySchedulers:
    @pytest.mark.parametrize("name", available_schedulers())
    def test_every_registry_scheduler_solves_from_dict_request(self, name):
        params = {}
        if name in ("framework", "multilevel"):
            params = {"config": FAST_CONFIG}
        elif name == "framework_heuristics":
            params = {"local_search_seconds": 0.2}
        elif name == "ilp_init":
            params = {"time_limit_per_batch": 0.5}
        result = SchedulingService(cache_size=0).solve(
            _request_dict(name, params, procs=2)
        )
        assert result.cost > 0
        assert result.scheduler == name
        assert result.to_schedule().is_valid()
        # pipeline schedulers report their stage trace
        if name == "framework":
            assert result.stages is not None
            assert result.stages.final == pytest.approx(result.cost)


def _cyclic_dag() -> ComputationalDAG:
    """0 -> 1 -> 2 -> 0 is a cycle, 3 -> 4 is not; edge arrays check cycles lazily."""
    return ComputationalDAG.from_edge_arrays(5, [0, 1, 2, 3], [1, 2, 0, 4], name="cyclic")


class TestCyclicInput:
    """A cyclic graph is refused with ``CycleError`` before any scheduler runs.

    Both routes below load a cycle without complaint, and on one some
    schedulers would loop forever and others would return a schedule.
    """

    @pytest.mark.parametrize("route", ["from_edge_arrays", "read_hdagb"])
    @pytest.mark.parametrize("name", available_schedulers())
    def test_every_registry_scheduler_raises_cycle_error(self, name, route, tmp_path):
        dag = _cyclic_dag()
        if route == "read_hdagb":
            path = tmp_path / "cyclic.hdagb"
            write_hdagb(dag, path)
            dag = read_hdagb(path)
        request = ScheduleRequest(
            dag=dag, machine=MachineSpec(num_procs=4, g=1, latency=2),
            scheduler=SchedulerSpec(name),
        )
        with time_limit(10), pytest.raises(CycleError):
            SchedulingService(cache_size=0).solve(request)


class TestWireFormat:
    def test_request_json_roundtrip_identity(self):
        data = _request_dict("bsp_greedy")
        rebuilt = ScheduleRequest.from_dict(data)
        assert rebuilt.to_dict() == data
        assert ScheduleRequest.from_json(rebuilt.to_json()).to_dict() == data

    def test_result_json_roundtrip_identity(self):
        result = SchedulingService(cache_size=0).solve(
            _request_dict("framework", {"config": FAST_CONFIG}, procs=2)
        )
        payload = json.loads(result.to_json())
        rebuilt = ScheduleResult.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.to_schedule().cost() == pytest.approx(result.cost)

    def test_file_reference_requests(self, tmp_path):
        dag = _dag()
        path = tmp_path / "instance.hdag"
        write_hyperdag(dag, path)
        request = ScheduleRequest(
            dag=str(path),
            machine=MachineSpec(2, 1, 2),
            scheduler=SchedulerSpec("source"),
        )
        assert request.to_dict()["dag_ref"] == str(path)
        inline = ScheduleRequest(
            dag=dag, machine=MachineSpec(2, 1, 2), scheduler=SchedulerSpec("source")
        )
        # a reference and its inline content address the same problem
        assert request.fingerprint() == inline.fingerprint()
        assert (
            SchedulingService(cache_size=0).solve(request).canonical_dict()
            == SchedulingService(cache_size=0).solve(inline).canonical_dict()
        )

    def test_dag_ref_mode_roundtrip(self):
        from repro.core.serialization import dag_to_dict

        result = SchedulingService(cache_size=0).solve(_request_dict("hdagg"))
        dag_dict = result.schedule_dict()["dag"]
        table = {"ref-1": dag_dict}
        stripped = result.with_dag_ref("ref-1", resolver=table.__getitem__)
        assert stripped.schedule_dict()["dag_ref"] == "ref-1"
        assert "dag" not in stripped.schedule_dict()
        # resolution is transparent and lossless
        assert stripped.canonical_dict() == result.canonical_dict()
        assert stripped.to_schedule().is_valid()
        assert dag_to_dict(stripped.to_schedule().dag) == dag_dict

    def test_dag_ref_without_resolver_raises(self):
        result = SchedulingService(cache_size=0).solve(_request_dict("hdagg"))
        orphan = result.with_dag_ref("nowhere")
        assert orphan.cost == result.cost  # metadata stays available
        with pytest.raises(ReproError, match="no resolver"):
            orphan.to_dict()

    def test_explicit_machine_roundtrip(self):
        machine = MachineSpec(4, 2, 3, numa_delta=3).build()
        request = ScheduleRequest(
            dag=_dag(), machine=machine, scheduler=SchedulerSpec("hdagg")
        )
        data = request.to_dict()
        assert "numa" in data["machine"]
        rebuilt = ScheduleRequest.from_dict(data)
        assert rebuilt.fingerprint() == request.fingerprint()


class TestMalformedWire:
    """Every malformed request/result dict fails with a typed ``ReproError``."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("budget",), "x"),
            (("budget",), [1]),
            (("budget", "seconds"), "nan"),
            (("budget", "seconds"), "inf"),
            (("budget", "seconds"), float("nan")),
            (("budget", "seconds"), True),
            (("budget", "seconds"), -3),
            (("budget", "max_steps"), -5),
            (("budget", "ilp_node_limit"), -1),
            (("machine",), []),
            (("machine",), "P=4"),
            (("machine", "num_procs"), 1.5),
            (("machine", "num_procs"), True),
            (("machine", "g"), float("nan")),
            (("machine", "latency"), float("inf")),
            (("seed",), 2.5),
            (("seed",), True),
            (("seed",), "7"),
        ],
    )
    def test_request_from_dict(self, path, value):
        data = _request_dict("hdagg")
        data["budget"] = Budget(max_steps=3).to_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ReproError):
            ScheduleRequest.from_dict(data)

    @pytest.mark.parametrize("field", ["max_steps", "ilp_node_limit"])
    @pytest.mark.parametrize("value", [1.5, True, "3"])
    def test_request_budget_counts(self, field, value):
        data = _request_dict("hdagg")
        data["budget"] = {field: value}
        with pytest.raises(ReproError):
            ScheduleRequest.from_dict(data)

    def test_request_non_mapping_payload(self):
        with pytest.raises(ReproError, match="mapping"):
            ScheduleRequest.from_dict(["hdagg"])

    def test_explicit_machine_non_finite(self):
        data = ScheduleRequest(
            dag=_dag(),
            machine=MachineSpec(4, 2, 3, numa_delta=3).build(),
            scheduler=SchedulerSpec("hdagg"),
        ).to_dict()
        data["machine"]["g"] = float("nan")
        with pytest.raises(ReproError):
            ScheduleRequest.from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("breakdown", None),
            ("breakdown", [1.0]),
            ("stages", "x"),
            ("stages", [1.0]),
            ("timings", None),
            ("timings", 5),
        ],
    )
    def test_result_from_dict(self, field, value):
        payload = json.loads(
            SchedulingService(cache_size=0).solve(_request_dict("hdagg")).to_json()
        )
        payload[field] = value
        with pytest.raises(ReproError):
            ScheduleResult.from_dict(payload)

    def test_result_stage_initial_costs(self):
        result = SchedulingService(cache_size=0).solve(
            _request_dict("framework", {"config": DETERMINISTIC_CONFIG})
        )
        payload = json.loads(result.to_json())
        payload["stages"]["initial"] = [1.0]
        with pytest.raises(ReproError):
            ScheduleResult.from_dict(payload)

    @pytest.mark.parametrize("payload", [None, [], "result"])
    def test_result_non_mapping_payload(self, payload):
        with pytest.raises(ReproError):
            ScheduleResult.from_dict(payload)


class TestFingerprint:
    def test_sensitive_to_every_component(self):
        base = ScheduleRequest.from_dict(_request_dict("hdagg"))
        fingerprints = {base.fingerprint()}
        for variant in (
            ScheduleRequest.from_dict(_request_dict("hdagg", procs=4)),
            ScheduleRequest.from_dict(_request_dict("hdagg", seed=9)),
            ScheduleRequest.from_dict(_request_dict("bsp_greedy")),
            ScheduleRequest(
                dag=_dag(seed=8),
                machine=MachineSpec(3, 1, 2),
                scheduler=SchedulerSpec("hdagg"),
            ),
            ScheduleRequest(
                dag=_dag(),
                machine=MachineSpec(3, 1, 2),
                scheduler=SchedulerSpec("hdagg"),
                budget=Budget(max_steps=5),
            ),
        ):
            fingerprints.add(variant.fingerprint())
        assert len(fingerprints) == 6  # all distinct

    def test_default_pipeline_config_fingerprint_pinned(self):
        """The default config's wire form and a request carrying it are pinned.

        Results are stored under the request fingerprint, so a pinned hash
        means entries written by earlier versions keep answering replays.
        """
        assert PipelineConfig().to_dict() == {
            "ilp_init_max_procs": 4,
            "use_ilp": True,
            "use_comm_ilp": True,
            "use_full_ilp": True,
            "local_search_seconds": 5.0,
            "hc_max_passes": 50,
            "hc_max_steps": None,
            "hccs_max_passes": 50,
            "ilp_full_seconds": 20.0,
            "ilp_partial_seconds": 10.0,
            "ilp_comm_seconds": 10.0,
            "ilp_init_seconds": 10.0,
            "ilp_full_max_variables": 20000,
            "ilp_partial_max_variables": 4000,
            "ilp_init_max_variables": 2000,
            "ilp_node_limit": None,
            "seed": 0,
        }
        request = ScheduleRequest(
            dag=_dag(),
            machine=MachineSpec(num_procs=3, g=1, latency=2),
            scheduler=SchedulerSpec("framework", {"config": PipelineConfig()}),
            seed=5,
        )
        assert request.fingerprint() == (
            "ef30bb549acb501d67cc546e4c1a4e625f2c05808fb589b47dd6c2441c32f06c"
        )

    def test_dag_fingerprint_tracks_mutation(self):
        dag = _dag()
        before = dag_fingerprint(dag)
        assert dag_fingerprint(dag) == before  # memoized
        dag.set_work(0, dag.work(0) + 1.0)
        assert dag_fingerprint(dag) != before

    def test_stable_across_processes(self, tmp_path):
        """The same wire request hashes identically in a fresh interpreter."""
        data = _request_dict("framework", {"config": FAST_CONFIG}, seed=5)
        payload_path = tmp_path / "request.json"
        payload_path.write_text(json.dumps(data), encoding="utf-8")
        script = (
            "import json, sys\n"
            "from repro.api import ScheduleRequest\n"
            "request = ScheduleRequest.from_json(open(sys.argv[1]).read())\n"
            "print(request.fingerprint())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "271828"  # a hash-order dependence would show
        out = subprocess.run(
            [sys.executable, "-c", script, str(payload_path)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == ScheduleRequest.from_dict(data).fingerprint()


class TestCache:
    def test_hit_miss_and_counters(self):
        service = SchedulingService()
        request = _request_dict("bsp_greedy")
        first = service.solve(request)
        assert not first.cache_hit
        second = service.solve(request)
        assert second.cache_hit
        assert second.canonical_dict() == first.canonical_dict()
        assert service.cache_info() == {"hits": 1, "misses": 1, "size": 1}
        # a different seed is a different content address
        third = service.solve(_request_dict("bsp_greedy", seed=11))
        assert not third.cache_hit
        assert service.cache_info()["misses"] == 2

    def test_lru_eviction_and_disable(self):
        service = SchedulingService(cache_size=1)
        a = _request_dict("bsp_greedy", seed=1)
        b = _request_dict("bsp_greedy", seed=2)
        service.solve(a)
        service.solve(b)  # evicts a
        assert service.cache_info()["size"] == 1
        assert not service.solve(a).cache_hit
        disabled = SchedulingService(cache_size=0)
        disabled.solve(a)
        assert not disabled.solve(a).cache_hit
        assert disabled.cache_info()["size"] == 0

    def test_clear_cache(self):
        service = SchedulingService()
        request = _request_dict("source")
        service.solve(request)
        service.clear_cache()
        assert service.cache_info() == {"hits": 0, "misses": 0, "size": 0}
        assert not service.solve(request).cache_hit


class TestSolveMany:
    def _requests(self, scheduler="framework", config=DETERMINISTIC_CONFIG):
        dag = _dag(16, seed=4)
        # P <= 4 on every machine, so the ILP pipeline also runs ILPinit
        specs = [MachineSpec(p, g, 2) for p in (2, 4) for g in (1, 3)]
        return [
            ScheduleRequest(
                dag=dag,
                machine=spec,
                scheduler=SchedulerSpec(scheduler, {"config": config}),
                budget=Budget(seconds=None, max_steps=50),
                seed=7,
            )
            for spec in specs
        ]

    @pytest.mark.parametrize(
        "scheduler, config",
        [
            ("framework", DETERMINISTIC_CONFIG),
            ("multilevel", DETERMINISTIC_CONFIG),
            ("framework", DETERMINISTIC_ILP_CONFIG),
        ],
        ids=["framework", "multilevel", "framework-ilp"],
    )
    def test_parallel_bit_identical_to_serial(self, scheduler, config):
        requests = self._requests(scheduler, config)
        serial = SchedulingService(cache_size=0).solve_many(requests, workers=1)
        parallel = SchedulingService(cache_size=0).solve_many(requests, workers=4)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.canonical_dict() == b.canonical_dict()

    def test_order_matches_requests_and_cache_short_circuits(self):
        service = SchedulingService()
        requests = self._requests()
        first = service.solve_many(requests)
        assert [r.fingerprint for r in first] == [r.fingerprint() for r in requests]
        again = service.solve_many(requests, workers=2)
        assert all(r.cache_hit for r in again)
        assert [a.canonical_dict() for a in again] == [
            f.canonical_dict() for f in first
        ]

    def test_accepts_dict_requests(self):
        service = SchedulingService(cache_size=0)
        results = service.solve_many([_request_dict("source"), _request_dict("hdagg")])
        assert [r.scheduler for r in results] == ["source", "hdagg"]


class TestBudgetModel:
    def test_roundtrip_and_flags(self):
        budget = Budget(seconds=2.5, max_steps=10, ilp_node_limit=100)
        data = budget.to_dict()
        rebuilt = Budget.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data
        fresh = rebuilt.started()
        assert fresh.seconds == 2.5 and fresh.max_steps == 10
        assert not fresh.expired()

    def test_max_steps_bounds_local_search(self):
        """A deterministic step cap of zero must freeze the local search."""
        dag = _dag(20, seed=5)

        def solve(budget):
            return SchedulingService(cache_size=0).solve(
                ScheduleRequest(
                    dag=dag,
                    machine=MachineSpec(4, 1, 2),
                    scheduler=SchedulerSpec(
                        "framework", {"config": DETERMINISTIC_CONFIG}
                    ),
                    budget=budget,
                )
            )

        frozen = solve(Budget(seconds=None, max_steps=0))
        free = solve(Budget(seconds=None))
        assert frozen.stages.after_local_search == pytest.approx(
            frozen.stages.best_init
        )
        assert free.cost <= frozen.cost + 1e-9
