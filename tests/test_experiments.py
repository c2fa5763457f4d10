"""Tests for the experiment harness (runner, grids, drivers)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ExperimentRunner,
    MachineSpec,
    aggregate_improvement,
    aggregate_ratio,
    no_numa_machine_grid,
    numa_machine_grid,
    run_huge_experiment,
    run_initializer_comparison,
    run_no_numa_grid,
    run_numa_grid,
)
from repro.dagdb import build_dataset
from repro.schedulers import PipelineConfig


#: heuristics-only configuration so harness tests stay fast
FAST_HEURISTIC = PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=None)


class TestMachineSpecs:
    def test_build_uniform_and_numa(self):
        uniform = MachineSpec(4, g=3, latency=5).build()
        assert uniform.num_procs == 4 and uniform.is_uniform
        numa = MachineSpec(8, g=1, latency=5, numa_delta=3).build()
        assert not numa.is_uniform
        assert numa.max_numa_multiplier == 9

    def test_labels(self):
        assert MachineSpec(4, 3, 5).label() == "P=4,g=3,l=5"
        assert "D=2" in MachineSpec(8, 1, 5, 2).label()

    def test_grids_match_paper(self):
        no_numa = no_numa_machine_grid()
        assert len(no_numa) == 9  # P in {4,8,16} x g in {1,3,5}
        assert all(spec.numa_delta is None for spec in no_numa)
        numa = numa_machine_grid()
        assert len(numa) == 6  # P in {8,16} x delta in {2,3,4}
        assert all(spec.g == 1 for spec in numa)


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def records(self):
        runner = ExperimentRunner(config=FAST_HEURISTIC, include_trivial=True)
        instances = build_dataset("tiny", scale="bench", include_coarse=False)[:2]
        specs = [MachineSpec(4, 1, 5), MachineSpec(4, 5, 5)]
        return runner.run(instances, specs)

    def test_record_structure(self, records):
        assert len(records) == 4
        for record in records:
            assert record.dataset == "tiny"
            assert record.num_nodes > 0
            for key in ("cilk", "hdagg", "init", "hccs", "ilp", "final", "trivial"):
                assert key in record.costs
                assert record.costs[key] > 0

    def test_stage_costs_monotone(self, records):
        for record in records:
            assert record.costs["init"] >= record.costs["hccs"] - 1e-9
            assert record.costs["hccs"] >= record.costs["final"] - 1e-9

    def test_ratio_helper(self, records):
        record = records[0]
        assert record.ratio("final", "cilk") == pytest.approx(
            record.costs["final"] / record.costs["cilk"]
        )

    def test_aggregations(self, records):
        ratio = aggregate_ratio(records, "final", "cilk")
        improvement = aggregate_improvement(records, "final", "cilk")
        assert 0 < ratio <= 1.2
        assert improvement == pytest.approx(1 - ratio)

    def test_list_baselines_included_on_demand(self):
        runner = ExperimentRunner(config=FAST_HEURISTIC, include_list_baselines=True)
        instance = build_dataset("tiny", scale="bench", include_coarse=False)[0]
        record = runner.run_instance(instance, MachineSpec(2, 1, 5))
        assert "etf" in record.costs and "bl_est" in record.costs


class TestDrivers:
    def test_run_no_numa_grid_small(self):
        records = run_no_numa_grid(
            datasets=("tiny",),
            procs=(4,),
            g_values=(1, 5),
            config=FAST_HEURISTIC,
            max_instances_per_dataset=2,
        )
        assert len(records) == 4
        assert {record.spec.g for record in records} == {1, 5}

    def test_run_numa_grid_small(self):
        records = run_numa_grid(
            datasets=("tiny",),
            procs=(8,),
            deltas=(4,),
            config=FAST_HEURISTIC,
            max_instances_per_dataset=2,
        )
        assert len(records) == 2
        assert all(record.spec.numa_delta == 4 for record in records)

    def test_framework_beats_cilk_on_average(self):
        """The qualitative headline of §7.1 holds even for the heuristic-only pipeline."""
        records = run_no_numa_grid(
            datasets=("tiny",),
            procs=(4,),
            g_values=(5,),
            config=FAST_HEURISTIC,
            max_instances_per_dataset=4,
        )
        assert aggregate_improvement(records, "final", "cilk") > 0

    def test_huge_driver_caps_its_ilp_free_pipeline(self, monkeypatch):
        """The huge dataset's step cap and clock reach the config its grid runs under."""
        from repro.analysis import experiments

        configs = []

        def capture(self, instances, specs, workers=None):
            configs.append(self.config)
            return []

        monkeypatch.setattr(experiments, "_dataset_instances", lambda *args: [])
        monkeypatch.setattr(experiments.ExperimentRunner, "run", capture)
        run_huge_experiment(hc_max_steps=5, local_search_seconds=None)
        run_huge_experiment()
        capped, default = configs
        for config in configs:
            assert not config.use_ilp and not config.use_comm_ilp
        assert capped.hc_max_steps == 5 and capped.local_search_seconds is None
        assert default.hc_max_steps is None and default.local_search_seconds == 5.0

    @pytest.mark.slow
    def test_initializer_comparison_counts(self, monkeypatch):
        from repro.analysis import experiments

        training_set = experiments.build_training_set
        monkeypatch.setattr(
            experiments,
            "build_training_set",
            lambda **kwargs: training_set(**kwargs)[:3],
        )
        wins = run_initializer_comparison(
            procs=(4,), g_values=(1,), ilp_init_time=0.5, scale="bench"
        )
        assert len(wins) == 3  # the first 3 training instances x 1 machine point
        assert all(w.winner in w.costs for w in wins)
        assert all(w.costs[w.winner] == min(w.costs.values()) for w in wins)


#: budget-free configuration: without wall-clock limits every scheduler is
#: fully deterministic, so parallel grids must equal serial ones exactly
BUDGET_FREE = PipelineConfig(use_ilp=False, use_comm_ilp=False, local_search_seconds=None)


class TestParallelGrid:
    """The process-parallel grid must reproduce the serial path bit-for-bit."""

    def _grid(self, workers):
        from repro.analysis import run_grid

        runner = ExperimentRunner(config=BUDGET_FREE, include_trivial=True)
        instances = build_dataset("tiny", scale="bench", include_coarse=False)[:2]
        specs = [MachineSpec(4, 1, 5), MachineSpec(4, 5, 5)]
        return run_grid(runner, instances, specs, workers=workers)

    def test_parallel_records_identical_to_serial(self):
        serial = self._grid(workers=1)
        parallel = self._grid(workers=4)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.instance == b.instance
            assert a.spec == b.spec
            assert a.costs == b.costs  # exact float equality, not approx

    def test_parallel_table_rows_byte_identical(self):
        from repro.analysis.tables import table1_no_numa_improvements

        serial_rows, serial_text = table1_no_numa_improvements(self._grid(workers=1))
        parallel_rows, parallel_text = table1_no_numa_improvements(self._grid(workers=4))
        assert serial_rows == parallel_rows
        assert serial_text.encode() == parallel_text.encode()

    def test_workers_env_default(self, monkeypatch):
        from repro.core.parallel import default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        with pytest.warns(UserWarning):
            assert default_workers() == 1

    def test_specs_iterator_not_drained(self):
        """A one-shot iterator of specs must still yield the full grid."""
        from repro.analysis import run_grid

        runner = ExperimentRunner(config=FAST_HEURISTIC)
        instances = build_dataset("tiny", scale="bench", include_coarse=False)[:2]
        specs = iter([MachineSpec(2, 1, 5), MachineSpec(4, 1, 5)])
        records = run_grid(runner, instances, specs, workers=1)
        assert len(records) == 4  # 2 instances x 2 specs, not 2
