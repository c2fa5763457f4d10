"""Tests for the experiment report subsystem (:mod:`repro.analysis`).

Covers the two layers and the CLI:

* aggregation — trial dedup, comparison groups, per-family cost profiles,
  rank tables (tie handling, complete-block selection, the Nemenyi
  critical difference) and pairwise win matrices,
* the HTML renderer — the golden property (two independently built stores
  holding the same trials render byte-identical HTML), the empty-store
  page, one section per family,
* the ``repro report`` CLI — writes exactly the rendered bytes,
  rewrites the file as the store fills, and refuses a store path that is
  not a directory with one error line.
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
)
from repro.analysis.report import build_report, render_html
from repro.api import (
    MachineSpec,
    ScheduleRequest,
    SchedulerSpec,
    SchedulingService,
)
from repro.cli import main, run
from repro.core import ConfigurationError
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
        html_a = render_html(build_report(first))
        html_b = render_html(build_report(second))
        assert html_a == html_b
        assert html_a.startswith("<!DOCTYPE html>")

    def test_report_carries_every_section(self, tmp_path):
        _populate_store(tmp_path)
        html = render_html(build_report(tmp_path))
        for heading in (
            "Overview",
            "Cost profiles by family",
            "Scheduler ranking",
        ):
            assert heading in html
        assert "erdos" in html
        assert "wins ↓ over →" in html
        assert "&amp;#" not in html  # no entity is escaped a second time
        assert "<svg" in html  # inline charts, no external assets
        assert "http" not in html.split("</title>")[1]  # self-contained

    def test_volatile_fields_never_rendered(self, tmp_path):
        _populate_store(tmp_path)
        report = build_report(tmp_path)
        html = render_html(report)
        assert "solve_seconds" not in html
        assert "created_at" not in html

    def test_empty_store_renders_no_trials_yet(self, tmp_path):
        html = render_html(build_report(tmp_path))
        assert "no trials yet" in html
        assert html.startswith("<!DOCTYPE html>")

    def test_no_store_renders_the_empty_store_page(self, tmp_path):
        report = build_report(None)
        assert (report.num_trials, report.families) == (0, [])
        assert render_html(report) == render_html(build_report(tmp_path))

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_store_root_that_is_not_a_directory_is_refused(self, tmp_path, kind):
        root = tmp_path / "store"
        if kind == "file":
            root.write_text("", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a directory"):
            build_report(root)
        with pytest.raises(ConfigurationError, match="not a directory"):
            build_report(ResultStore(root))
        assert root.exists() == (kind == "file")

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
        report = build_report(tmp_path)
        assert [profile.family for profile in report.families] == ["erdos", "grid"]
        html = render_html(report)
        assert html.index("<h3>erdos</h3>") < html.index("<h3>grid</h3>")
        assert "6 trials over 2 instances, 16&#8211;16 nodes" in html
        assert "2 trials over 1 instances, 24&#8211;24 nodes" in html
        assert "no trials yet" not in html


# ---------------------------------------------------------------------- #
# the CLI
# ---------------------------------------------------------------------- #
class TestReportCli:
    def test_writes_report_html(self, tmp_path, capsys):
        _populate_store(tmp_path / "store")
        out = tmp_path / "report.html"
        code = main(
            [
                "report",
                "--store", str(tmp_path / "store"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert "6 trial(s)" in capsys.readouterr().out

    def test_empty_store_writes_the_no_trials_page(self, tmp_path, capsys):
        (tmp_path / "store").mkdir()
        out = tmp_path / "report.html"
        argv = ["report", "--store", str(tmp_path / "store"), "--out", str(out)]
        assert main(argv) == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "no trials yet" in html
        assert "0 trial(s), 0 families" in capsys.readouterr().out

    def test_written_file_is_the_rendered_report(self, tmp_path):
        store = tmp_path / "store"
        _populate_store(store)
        out = tmp_path / "report.html"
        argv = ["report", "--store", str(store), "--out", str(out)]
        assert main(argv) == 0
        expected = render_html(build_report(store))
        assert out.read_bytes() == expected.encode("utf-8")

    def test_rewritten_as_the_store_fills(self, tmp_path):
        """Each run re-reads the store: new trials appear on the next run."""
        store, out = tmp_path / "store", tmp_path / "site" / "report.html"
        store.mkdir()
        argv = ["report", "--store", str(store), "--out", str(out)]
        assert main(argv) == 0
        assert "no trials yet" in out.read_text(encoding="utf-8")
        _populate_store(store)
        assert main(argv) == 0
        html = out.read_text(encoding="utf-8")
        assert "no trials yet" not in html
        assert "erdos" in html and "bsp_greedy" in html
        assert [path.name for path in out.parent.iterdir()] == ["report.html"]

    def test_missing_store_is_one_error_line_and_no_file(self, tmp_path, capsys):
        missing, out = tmp_path / "missing", tmp_path / "report.html"
        argv = ["report", "--store", str(missing), "--out", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ConfigurationError: result store {str(missing)!r} "
            "is not a directory\n"
        )
        assert not out.exists()
        assert not missing.exists()

    def test_default_out_is_report_html_in_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 0  # no --store: the empty report
        html = (tmp_path / "report.html").read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "no trials yet" in html
        assert "report written to report.html" in capsys.readouterr().out

    def test_bench_records_in_the_working_directory_stay_off_the_page(
        self, tmp_path, monkeypatch
    ):
        """The page renders the store's trials only: ``BENCH_*.json`` files in
        the working directory, where the report once read its history,
        change no byte of it."""
        store = tmp_path / "store"
        _populate_store(store)
        for pr, speedup in ((1, 10.0), (2, 1.0)):
            payload = {"schema_version": 1, "pr": pr, "benchmarks": {"kern": {"speedup": speedup}}}
            (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps(payload), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--store", "store", "--out", "report.html"]) == 0
        html = (tmp_path / "report.html").read_text(encoding="utf-8")
        assert html == render_html(build_report(store))
        assert "kern" not in html
