"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import json

import pytest

from repro.api import ScheduleResult
from repro.cli import build_parser, main
from repro.core import load_schedule
from repro.io import read_hyperdag, write_hyperdag

from conftest import random_dag


@pytest.fixture
def hyperdag_file(tmp_path):
    dag = random_dag(20, 0.2, seed=3)
    path = tmp_path / "instance.hdag"
    write_hyperdag(dag, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--generator", "cg", "--size", "6", "--output", "x.hdag"]
        )
        assert args.command == "generate"
        assert args.generator == "cg"
        assert args.size == 6

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule", "input.hdag"])
        assert args.scheduler == "framework"
        assert args.procs == 4
        assert args.numa_delta is None

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "x.hdag", "--scheduler", "nope"])


class TestGenerate:
    @pytest.mark.parametrize("generator", ["spmv", "cg", "pagerank"])
    def test_generates_hyperdag_files(self, tmp_path, generator, capsys):
        output = tmp_path / f"{generator}.hdag"
        code = main(
            [
                "generate",
                "--generator", generator,
                "--size", "5",
                "--density", "0.4",
                "--iterations", "2",
                "--output", str(output),
            ]
        )
        assert code == 0
        dag = read_hyperdag(output)
        assert dag.num_nodes > 0
        assert "wrote" in capsys.readouterr().out


class TestSchedule:
    def test_schedule_with_fast_heuristic(self, hyperdag_file, capsys):
        code = main(
            [
                "schedule", str(hyperdag_file),
                "--scheduler", "bsp_greedy",
                "--procs", "4", "--g", "2", "--latency", "3",
                "--render",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost" in out
        assert "superstep 0" in out

    def test_schedule_with_numa_and_json_output(self, hyperdag_file, tmp_path, capsys):
        output = tmp_path / "schedule.json"
        code = main(
            [
                "schedule", str(hyperdag_file),
                "--scheduler", "hdagg",
                "--procs", "8", "--numa-delta", "3",
                "--output", str(output),
            ]
        )
        assert code == 0
        # the emitted payload is the ScheduleResult wire format ...
        payload = json.loads(output.read_text())
        assert payload["scheduler"] == "hdagg"
        assert payload["schedule"]["machine"]["num_procs"] == 8
        result = ScheduleResult.from_dict(payload)
        assert result.to_dict() == payload  # lossless round-trip
        assert result.to_schedule().is_valid()
        # ... and load_schedule understands it too (back-compat loader)
        loaded = load_schedule(output)
        assert loaded.is_valid()
        assert loaded.machine.num_procs == 8


class TestCompare:
    def test_compare_prints_cost_table(self, hyperdag_file, capsys):
        code = main(
            [
                "compare", str(hyperdag_file),
                "--procs", "4", "--g", "3",
                "--schedulers", "cilk", "hdagg", "source",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("cilk", "hdagg", "source"):
            assert name in out


class TestPersistentStore:
    def test_schedule_store_answers_second_run_from_disk(
        self, hyperdag_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        argv = [
            "schedule", str(hyperdag_file),
            "--scheduler", "hdagg",
            "--store", str(store),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[from store]" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[from store]" in second
        # identical cost line, just flagged as replayed
        assert second.startswith(first.rstrip("\n"))

    def test_compare_fills_store(self, hyperdag_file, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            [
                "compare", str(hyperdag_file),
                "--schedulers", "cilk", "hdagg",
                "--store", str(store),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["queue", "--root", str(store), "status"]) == 0
        out = capsys.readouterr().out
        assert "2 result(s)" in out


class TestQueueWorkflow:
    def test_submit_serve_and_status(self, hyperdag_file, tmp_path, capsys):
        from repro.api import MachineSpec, ScheduleRequest, SchedulerSpec

        root = tmp_path / "root"
        request = ScheduleRequest(
            dag=str(hyperdag_file),
            machine=MachineSpec(4, 1.0, 5.0),
            scheduler=SchedulerSpec("cilk"),
            seed=0,
        )
        request_file = tmp_path / "request.json"
        request_file.write_text(request.to_json(indent=2))

        assert main(["queue", "--root", str(root), "submit", str(request_file)]) == 0
        assert "enqueued" in capsys.readouterr().out
        # double submission is reported and rejected
        assert main(["queue", "--root", str(root), "submit", str(request_file)]) == 1
        capsys.readouterr()

        assert main(["queue", "--root", str(root), "status"]) == 0
        assert "pending: 1" in capsys.readouterr().out

        assert main(["serve-worker", "--root", str(root), "--workers", "1"]) == 0
        assert "1 completed" in capsys.readouterr().out

        assert main(["queue", "--root", str(root), "status"]) == 0
        out = capsys.readouterr().out
        assert "pending: 0" in out
        assert "1 result(s)" in out

        # the drained result now answers a plain schedule run from disk
        assert (
            main(
                [
                    "schedule", str(hyperdag_file),
                    "--scheduler", "cilk",
                    "--store", str(root),
                ]
            )
            == 0
        )
        assert "[from store]" in capsys.readouterr().out

    def test_failures_and_retry(self, tmp_path, capsys):
        from repro.store import WorkQueue

        root = tmp_path / "root"
        queue = WorkQueue(root)
        queue.submit("f1", {"broken": True})
        # a failed entry is reported via the exit code
        assert main(["serve-worker", "--root", str(root), "--once"]) == 1
        capsys.readouterr()
        assert main(["queue", "--root", str(root), "failures"]) == 0
        out = capsys.readouterr().out
        assert "f1" in out and "1 terminal failure(s)" in out
        assert main(["queue", "--root", str(root), "retry"]) == 0
        assert "requeued 1" in capsys.readouterr().out
