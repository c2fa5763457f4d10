"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import (
    MachineSpec,
    ScheduleRequest,
    ScheduleResult,
    SchedulerSpec,
    SchedulingService,
)
from repro.cli import build_parser, main
from repro.core import ComputationalDAG, load_schedule
from repro.core.serialization import dag_from_dict, dag_to_dict
from repro.io import read_hyperdag, write_hdagb, write_hyperdag
from repro.store import ResultStore

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

    def test_help_lists_the_five_commands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "{generate,schedule,compare,store,report}" in capsys.readouterr().out

    def test_store_gc_arguments(self):
        args = build_parser().parse_args(["store", "--root", "r", "gc"])
        assert (args.command, args.store_command, args.root) == ("store", "gc", "r")
        assert args.tmp_grace_seconds == 3600.0 and args.prune_trials is False
        args = build_parser().parse_args(
            ["store", "--root", "r", "gc", "--tmp-grace-seconds", "5", "--prune-trials"]
        )
        assert args.tmp_grace_seconds == 5.0 and args.prune_trials is True
        for argv in (["store", "gc"], ["store", "--root", "r"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.store is None
        assert args.out == "report.html"


class TestGenerate:
    @pytest.mark.parametrize("generator", ["spmv", "cg", "cg_coarse", "pagerank"])
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

    def test_output_file_is_the_solve_result(self, hyperdag_file, tmp_path):
        """The --output file is the solve's wire form, written compact, loadable both ways."""
        output = tmp_path / "result.json"
        argv = [
            "schedule", str(hyperdag_file),
            "--scheduler", "hdagg",
            "--procs", "8", "--g", "2", "--latency", "3", "--numa-delta", "3",
            "--output", str(output),
        ]
        assert main(argv) == 0
        text = output.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert text == json.dumps(payload)  # no indent
        request = ScheduleRequest(
            dag=str(hyperdag_file),
            machine=MachineSpec(num_procs=8, g=2, latency=3, numa_delta=3),
            scheduler=SchedulerSpec("hdagg"),
        )
        solved = SchedulingService(cache_size=0).solve(request)
        result = ScheduleResult.from_dict(payload)
        assert result.to_dict() == payload
        # equal to the solve's own to_dict() up to its timings
        assert result.canonical_dict() == solved.canonical_dict()
        assert set(payload) == set(solved.to_dict())
        expected = solved.to_schedule()
        loaded = load_schedule(output)
        assert np.array_equal(loaded.procs, expected.procs)
        assert np.array_equal(loaded.supersteps, expected.supersteps)
        assert loaded.cost() == solved.cost


class TestDagToDict:
    def test_edges_keep_the_per_edge_form_and_order(self):
        """Edges added out of source order come out as the per-edge walk lists them."""
        dag = ComputationalDAG.from_edge_arrays(
            5,
            [3, 0, 2, 0, 1, 0],
            [4, 2, 3, 1, 4, 3],
            work_weights=[1, 2.5, 3, 4, 0.5],
            comm_weights=[1, 0, 2, 1.25, 3],
        )
        data = dag_to_dict(dag)
        assert data == {
            "name": dag.name,
            "num_nodes": 5,
            "work": [float(w) for w in dag.work_weights],
            "comm": [float(c) for c in dag.comm_weights],
            "edges": [[edge.source, edge.target] for edge in dag.edges()],
        }
        assert data["edges"] == [[0, 2], [0, 1], [0, 3], [1, 4], [2, 3], [3, 4]]
        assert {type(x) for x in data["work"] + data["comm"]} == {float}
        assert {type(x) for edge in data["edges"] for x in edge} == {int}
        assert dag_to_dict(dag_from_dict(data)) == data


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

    def test_compare_fills_store(self, hyperdag_file, tmp_path):
        store = tmp_path / "store"
        code = main(
            [
                "compare", str(hyperdag_file),
                "--schedulers", "cilk", "hdagg",
                "--store", str(store),
            ]
        )
        assert code == 0
        assert len(ResultStore(store)) == 2


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` in a fresh interpreter importing this checkout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestTypedErrors:
    """A typed error reaches the shell as one line and exit status 2."""

    def test_cyclic_hdagb(self, tmp_path):
        path = tmp_path / "cyclic.hdagb"
        # 0 -> 1 -> 2 -> 0 is a cycle; edge arrays check acyclicity lazily
        write_hdagb(ComputationalDAG.from_edge_arrays(5, [0, 1, 2, 3], [1, 2, 0, 4]), path)
        done = _run_cli("schedule", str(path), "--scheduler", "framework", "--procs", "4")
        assert done.returncode == 2
        assert done.stderr.startswith("error: CycleError: ")
        assert len(done.stderr.splitlines()) == 1
        assert done.stdout == ""

    def test_malformed_hdag(self, tmp_path):
        path = tmp_path / "bad.hdag"
        path.write_text("%% HyperDAG bad\nnodes 2\n1 1\n1 x\nhyperedges 0\n")
        done = _run_cli("schedule", str(path), "--scheduler", "cilk")
        assert done.returncode == 2
        assert done.stderr.startswith("error: DagError: line 4: ")
        assert len(done.stderr.splitlines()) == 1

    def test_hyperdag_text_under_an_hdagb_name(self, tmp_path):
        path = tmp_path / "t.hdagb"
        done = _run_cli(
            "generate", "--generator", "fft", "--size", "8",
            "--out-format", "hdag", "--output", str(path),
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ConfigurationError: ")
        assert len(done.stderr.splitlines()) == 1
        assert not path.exists()

    def test_main_still_raises(self, tmp_path):
        path = tmp_path / "bad.hdag"
        path.write_text("nodes two\n")
        with pytest.raises(repro.core.DagError):
            main(["schedule", str(path)])
