"""Tests for the experiment report subsystem (:mod:`repro.analysis`).

Covers the three layers and the CLI gate:

* aggregation — trial dedup, comparison groups, per-family cost profiles,
  rank tables (tie handling, complete-block selection, the Nemenyi
  critical difference) and pairwise win matrices,
* regression flags — injected speedup/cost drift fires, drift within
  tolerance does not, and "previous" is gap-tolerant per row,
* the HTML renderer — the golden property (two independently built stores
  holding the same trials render byte-identical HTML), the empty-store
  page, one section per family, flags reaching the page,
* the ``repro report`` CLI — writes exactly the rendered bytes, rewrites
  the file as the store fills, and ``--fail-on-regression`` exits non-zero
  exactly when a flag fired.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.aggregate import (
    _ranks,
    comparison_groups,
    dedup_trials,
    family_profiles,
    rank_table,
    regression_flags,
    trajectory_summary,
)
from repro.analysis.report import build_report, render_html
from repro.api import (
    MachineSpec,
    ScheduleRequest,
    SchedulerSpec,
    SchedulingService,
)
from repro.cli import main
from repro.store import ResultStore, TrialRecord

from conftest import random_dag


def make_trial(
    fingerprint,
    scheduler,
    cost,
    dag_name="erdos_1",
    dag_fingerprint="d1",
    seed=0,
    created_at=1.0,
    num_nodes=16,
):
    return TrialRecord(
        fingerprint=fingerprint,
        scheduler=scheduler,
        family=dag_name.split("_", 1)[0],
        dag_name=dag_name,
        dag_fingerprint=dag_fingerprint,
        num_nodes=num_nodes,
        num_edges=2 * num_nodes,
        machine={"num_procs": 4, "g": 1.0, "latency": 5.0, "numa_delta": None},
        budget=None,
        seed=seed,
        cost=float(cost),
        breakdown={"total": float(cost)},
        num_supersteps=3,
        timings={"solve_seconds": 0.01},
        created_at=created_at,
    )


def grid_trials():
    """Three schedulers on three instances over two families (complete)."""
    trials = []
    for index, dag in enumerate(["erdos_1", "erdos_2", "grid_1"]):
        for scheduler, cost in [
            ("bsp", 8.0 + index),
            ("cilk", 10.0 + index),
            ("etf", 12.0 + index),
        ]:
            trials.append(
                make_trial(
                    f"fp-{dag}-{scheduler}",
                    scheduler,
                    cost,
                    dag_name=dag,
                    dag_fingerprint=f"dag-{index}",
                )
            )
    return trials


def _write_record(root, pr, benchmarks):
    payload = {"schema_version": 1, "pr": pr, "benchmarks": benchmarks}
    (root / f"BENCH_{pr}.json").write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
class TestAggregation:
    def test_dedup_keeps_latest_per_fingerprint(self):
        first = make_trial("fp", "bsp", 10.0, created_at=1.0)
        recomputed = make_trial("fp", "bsp", 10.0, created_at=2.0)
        deduped = dedup_trials([first, recomputed])
        assert len(deduped) == 1
        assert deduped[0].created_at == 2.0

    def test_comparison_groups_split_by_problem_identity(self):
        trials = grid_trials()
        groups = comparison_groups(trials)
        assert len(groups) == 3  # one per instance
        for _, by_scheduler in groups:
            assert sorted(by_scheduler) == ["bsp", "cilk", "etf"]
        # a different seed is a different group, not a contender
        trials.append(make_trial("fp-seeded", "bsp", 1.0, seed=7))
        assert len(comparison_groups(trials)) == 4

    def test_family_profiles(self):
        profiles = family_profiles(grid_trials())
        assert [p.family for p in profiles] == ["erdos", "grid"]
        erdos = profiles[0]
        assert erdos.num_instances == 2
        assert erdos.num_trials == 6
        by_name = {s.scheduler: s for s in erdos.schedulers}
        assert by_name["bsp"].wins == 2
        assert by_name["bsp"].geomean_ratio_to_best == pytest.approx(1.0)
        assert by_name["etf"].geomean_ratio_to_best > by_name[
            "cilk"
        ].geomean_ratio_to_best
        assert by_name["cilk"].wins == 0

    def test_tied_costs_share_an_averaged_rank(self):
        assert _ranks({"a": 1.0, "b": 1.0, "c": 2.0}) == {
            "a": 1.5,
            "b": 1.5,
            "c": 3.0,
        }

    def test_rank_table_orders_by_mean_rank(self):
        table = rank_table(grid_trials())
        assert [e.scheduler for e in table.entries] == ["bsp", "cilk", "etf"]
        assert [e.mean_rank for e in table.entries] == [1.0, 2.0, 3.0]
        assert table.num_blocks == 3
        assert table.critical_difference == pytest.approx(
            2.343 * (4 * 3 / (6 * 3)) ** 0.5
        )
        # bsp beats etf by the full rank span over 3 blocks: significant
        assert ("bsp", "etf") in table.significant_pairs
        assert table.wins["bsp"] == {"cilk": 3, "etf": 3}

    def test_rank_table_uses_largest_complete_block_signature(self):
        trials = grid_trials()
        # a lone two-scheduler group must not shrink the 3-scheduler blocks
        trials.append(
            make_trial("x1", "bsp", 1.0, dag_name="tri_1", dag_fingerprint="t")
        )
        trials.append(
            make_trial("x2", "cilk", 2.0, dag_name="tri_1", dag_fingerprint="t")
        )
        table = rank_table(trials)
        assert len(table.entries) == 3
        assert table.num_blocks == 3
        # ...but it still feeds the pairwise win matrix
        assert table.wins["bsp"]["cilk"] == 4

    def test_rank_table_empty_without_comparisons(self):
        solo = [make_trial("a", "bsp", 1.0)]
        table = rank_table(solo)
        assert table.entries == []
        assert table.critical_difference is None

    def test_trajectory_summary_is_per_pr_geomean(self):
        summary = trajectory_summary({7: {"a": 4.0, "b": 1.0}, 3: {"a": 2.0}})
        assert summary == [(3, 2.0), (7, pytest.approx(2.0))]


# ---------------------------------------------------------------------- #
# regression flags
# ---------------------------------------------------------------------- #
class TestRegressionFlags:
    def test_speedup_drop_beyond_tolerance_fires(self, tmp_path):
        _write_record(tmp_path, 1, {"kern": {"speedup": 10.0}})
        _write_record(tmp_path, 2, {"kern": {"speedup": 4.0}})
        flags = regression_flags(tmp_path, speedup_tolerance=0.5)
        assert len(flags) == 1
        flag = flags[0]
        assert flag.kind == "kernel_speedup"
        assert flag.label == "kern"
        assert (flag.previous_pr, flag.current_pr) == (1, 2)
        assert flag.drift == pytest.approx(-0.6)
        assert "fell" in flag.describe()

    def test_drift_within_tolerance_is_quiet(self, tmp_path):
        _write_record(tmp_path, 1, {"kern": {"speedup": 10.0}})
        _write_record(tmp_path, 2, {"kern": {"speedup": 6.0}})
        assert regression_flags(tmp_path, speedup_tolerance=0.5) == []

    def test_cost_rise_beyond_tolerance_fires(self, tmp_path):
        _write_record(tmp_path, 1, {"case": {"final_cost": 100.0}})
        _write_record(tmp_path, 2, {"case": {"final_cost": 120.0}})
        flags = regression_flags(tmp_path, cost_tolerance=0.05)
        assert [f.kind for f in flags] == ["benchmark_cost"]
        assert flags[0].drift == pytest.approx(0.2)
        assert "rose" in flags[0].describe()

    def test_cost_improvement_never_flags(self, tmp_path):
        _write_record(tmp_path, 1, {"case": {"final_cost": 100.0}})
        _write_record(tmp_path, 2, {"case": {"final_cost": 50.0}})
        assert regression_flags(tmp_path, cost_tolerance=0.05) == []

    def test_previous_value_is_gap_tolerant_per_row(self, tmp_path):
        """A row's baseline may live several PRs back (no BENCH_5 exists)."""
        _write_record(tmp_path, 4, {"kern": {"speedup": 10.0}})
        _write_record(tmp_path, 6, {"other": {"speedup": 3.0}})
        _write_record(
            tmp_path, 7, {"kern": {"speedup": 1.0}, "other": {"speedup": 3.0}}
        )
        flags = regression_flags(tmp_path, speedup_tolerance=0.5)
        assert [(f.label, f.previous_pr, f.current_pr) for f in flags] == [
            ("kern", 4, 7)
        ]

    def test_rows_only_in_history_flag_nothing(self, tmp_path):
        """A retired benchmark row must not raise a flag forever after."""
        _write_record(tmp_path, 1, {"old": {"speedup": 10.0}})
        _write_record(tmp_path, 2, {"new": {"speedup": 2.0}})
        assert regression_flags(tmp_path, speedup_tolerance=0.0) == []

    def test_repo_bench_history_is_clean_at_default_tolerances(self):
        """Acceptance: the committed BENCH records gate CI without noise."""
        from pathlib import Path

        assert regression_flags(Path(__file__).parent.parent) == []


# ---------------------------------------------------------------------- #
# the HTML report
# ---------------------------------------------------------------------- #
def _populate_store(root):
    """A small real grid solved into a store (the seeded mini-store)."""
    requests = []
    for seed in (1, 2):
        dag = random_dag(16, 0.25, seed=seed)
        dag.name = f"erdos_{seed}"
        for scheduler in ("cilk", "bsp_greedy", "etf"):
            requests.append(
                ScheduleRequest(
                    dag=dag,
                    machine=MachineSpec(4, 1.0, 5.0),
                    scheduler=SchedulerSpec(scheduler),
                    seed=0,
                )
            )
    SchedulingService(store=ResultStore(root)).solve_many(requests, workers=1)


class TestHtmlReport:
    def test_golden_byte_identical_across_independent_stores(self, tmp_path):
        """Same trials, different stores, different wall-clocks: same bytes."""
        first, second = tmp_path / "a", tmp_path / "b"
        _populate_store(first)
        _populate_store(second)
        html_a = render_html(build_report(first, bench_root=None))
        html_b = render_html(build_report(second, bench_root=None))
        assert html_a == html_b
        assert html_a.startswith("<!DOCTYPE html>")

    def test_report_carries_every_section(self, tmp_path):
        _populate_store(tmp_path)
        _write_record(tmp_path, 1, {"kern": {"speedup": 2.0}})
        html = render_html(build_report(tmp_path, bench_root=tmp_path))
        for heading in (
            "Overview",
            "Cost profiles by family",
            "Scheduler ranking",
            "Kernel speedup trajectory",
            "Regression flags",
        ):
            assert heading in html
        assert "erdos" in html
        assert "<svg" in html  # inline charts, no external assets
        assert "http" not in html.split("</title>")[1]  # self-contained

    def test_volatile_fields_never_rendered(self, tmp_path):
        _populate_store(tmp_path)
        report = build_report(tmp_path)
        html = render_html(report)
        assert "solve_seconds" not in html
        assert "created_at" not in html

    def test_empty_store_renders_no_trials_yet(self, tmp_path):
        html = render_html(build_report(tmp_path, bench_root=None))
        assert "no trials yet" in html
        assert html.startswith("<!DOCTYPE html>")

    def test_every_family_gets_its_own_section(self, tmp_path):
        _populate_store(tmp_path)
        dag = random_dag(24, 0.2, seed=7)
        dag.name = "grid_7"
        SchedulingService(store=ResultStore(tmp_path)).solve_many(
            [
                ScheduleRequest(
                    dag=dag,
                    machine=MachineSpec(4, 1.0, 5.0),
                    scheduler=SchedulerSpec(scheduler),
                    seed=0,
                )
                for scheduler in ("cilk", "etf")
            ],
            workers=1,
        )
        report = build_report(tmp_path, bench_root=None)
        assert [profile.family for profile in report.families] == ["erdos", "grid"]
        html = render_html(report)
        assert html.index("<h3>erdos</h3>") < html.index("<h3>grid</h3>")
        assert "6 trials over 2 instances, 16&#8211;16 nodes" in html
        assert "2 trials over 1 instances, 24&#8211;24 nodes" in html
        assert "no trials yet" not in html

    def test_bench_only_report_without_a_store(self, tmp_path):
        _write_record(tmp_path, 1, {"kern": {"speedup": 2.0}})
        _write_record(tmp_path, 2, {"kern": {"speedup": 2.1}})
        report = build_report(None, bench_root=tmp_path)
        assert (report.num_trials, report.families, report.flags) == (0, [], [])
        assert len(report.trajectory) == 2
        html = render_html(report)
        assert "no trials yet" in html
        assert "Kernel speedup trajectory" in html and "<svg" in html

    def test_flags_reach_the_page(self, tmp_path):
        _write_record(tmp_path, 1, {"kern": {"speedup": 10.0}})
        _write_record(tmp_path, 2, {"kern": {"speedup": 1.0}})
        report = build_report(None, bench_root=tmp_path)
        assert report.has_regressions
        html = render_html(report)
        assert "kernel_speedup" in html
        assert 'class="flag"' in html


# ---------------------------------------------------------------------- #
# the CLI gate
# ---------------------------------------------------------------------- #
class TestReportCli:
    def test_writes_report_html(self, tmp_path, capsys):
        _populate_store(tmp_path / "store")
        out = tmp_path / "report.html"
        code = main(
            [
                "report",
                "--store", str(tmp_path / "store"),
                "--bench-root", "none",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert "6 trial(s)" in capsys.readouterr().out

    def test_empty_store_writes_the_no_trials_page(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        argv = ["report", "--store", str(tmp_path / "store"), "--bench-root",
                "none", "--out", str(out)]
        assert main(argv) == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "no trials yet" in html
        assert "0 trial(s), 0 families" in capsys.readouterr().out

    def test_written_file_is_the_rendered_report(self, tmp_path):
        store = tmp_path / "store"
        _populate_store(store)
        _write_record(tmp_path, 1, {"kern": {"speedup": 2.0}})
        out = tmp_path / "report.html"
        argv = ["report", "--store", str(store), "--bench-root", str(tmp_path),
                "--out", str(out)]
        assert main(argv) == 0
        expected = render_html(build_report(store, bench_root=tmp_path))
        assert out.read_bytes() == expected.encode("utf-8")

    def test_rewritten_as_the_store_fills(self, tmp_path):
        """Each run re-reads the store: new trials appear on the next run."""
        store, out = tmp_path / "store", tmp_path / "site" / "report.html"
        argv = ["report", "--store", str(store), "--bench-root", "none",
                "--out", str(out)]
        assert main(argv) == 0
        assert "no trials yet" in out.read_text(encoding="utf-8")
        _populate_store(store)
        assert main(argv) == 0
        html = out.read_text(encoding="utf-8")
        assert "no trials yet" not in html
        assert "erdos" in html and "bsp_greedy" in html
        assert [path.name for path in out.parent.iterdir()] == ["report.html"]

    def test_default_out_is_report_html_in_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--bench-root", "none"]) == 0
        assert (tmp_path / "report.html").read_text(encoding="utf-8").startswith(
            "<!DOCTYPE html>"
        )
        assert "report written to report.html" in capsys.readouterr().out

    def test_fail_on_regression_exits_nonzero_on_injected_drift(
        self, tmp_path, capsys
    ):
        _write_record(tmp_path, 1, {"kern": {"speedup": 10.0}})
        _write_record(tmp_path, 2, {"kern": {"speedup": 1.0}})
        code = main(
            [
                "report",
                "--bench-root", str(tmp_path),
                "--out", str(tmp_path / "report.html"),
                "--fail-on-regression",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        # the report is still written before the gate trips
        assert (tmp_path / "report.html").exists()

    def test_fail_on_regression_passes_when_clean(self, tmp_path):
        _write_record(tmp_path, 1, {"kern": {"speedup": 10.0}})
        _write_record(tmp_path, 2, {"kern": {"speedup": 9.9}})
        code = main(
            [
                "report",
                "--bench-root", str(tmp_path),
                "--out", str(tmp_path / "report.html"),
                "--fail-on-regression",
            ]
        )
        assert code == 0
