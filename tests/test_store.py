"""Tests for the persistent scheduling service (repro.store).

Covers the layers of the subsystem and their crash-recovery guarantees:

* the filesystem primitives (atomic publish, tolerant reads, concurrent
  writers of one path),
* the content-addressed result store (round trips, DAG deduplication,
  corrupt entries reading as missing and being recomputed),
* resumable experiments (a warm store answers a whole re-run with zero
  scheduler invocations and byte-identical tables; a partial store,
  serial or pool-parallel, computes exactly the missing points; a grid
  restarted over a crashed run's debris loses and duplicates nothing; a
  failing request propagates without harming what is stored),
* garbage collection and the trial metadata table.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import pytest

from repro.analysis.experiments import ExperimentRunner, run_grid
from repro.analysis.tables import table1_no_numa_improvements
from repro.api import (
    MachineSpec,
    ScheduleRequest,
    SchedulerSpec,
    SchedulingService,
)
from repro.core import ComputationalDAG, load_schedule
from repro.core.exceptions import CycleError, ReproError
from repro.dagdb import build_dataset
from repro.schedulers.pipeline import PipelineConfig
from repro.store import ResultStore, dag_dict_fingerprint
from repro.store.fsio import atomic_write_json, read_json_tolerant

from conftest import random_dag

#: budget-free: every scheduler is deterministic, replays are bit-identical
BUDGET_FREE = PipelineConfig(
    use_ilp=False, use_comm_ilp=False, local_search_seconds=None
)


def make_request(seed=0, scheduler="cilk", dag=None, procs=4, g=1.0):
    return ScheduleRequest(
        dag=dag if dag is not None else random_dag(16, 0.25, seed=3),
        machine=MachineSpec(procs, g, 5.0),
        scheduler=SchedulerSpec(scheduler),
        seed=seed,
    )


class FakeClock:
    """Injectable epoch-seconds source for deterministic grace periods."""

    def __init__(self, now=1000.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += float(seconds)


# ---------------------------------------------------------------------- #
# filesystem primitives
# ---------------------------------------------------------------------- #
class TestFsio:
    def test_atomic_json_round_trip(self, tmp_path):
        path = tmp_path / "a" / "b.json"
        atomic_write_json(path, {"x": 1})
        assert read_json_tolerant(path) == {"x": 1}
        assert not list(path.parent.glob("*.tmp"))  # no orphan temporaries

    def test_missing_and_corrupt_read_as_none(self, tmp_path):
        assert read_json_tolerant(tmp_path / "absent.json") is None
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"x": [1, 2')
        assert read_json_tolerant(truncated) is None
        undecodable = tmp_path / "undecodable.json"
        undecodable.write_bytes(b'{"x": "\xff\xfe"}')
        assert read_json_tolerant(undecodable) is None

    def test_equal_payloads_publish_equal_bytes(self, tmp_path):
        """Keys are sorted, so insertion order never changes a file."""
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        atomic_write_json(first, {"b": 2, "a": [1, {"d": 4, "c": 3}]})
        atomic_write_json(second, {"a": [1, {"c": 3, "d": 4}], "b": 2})
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == '{"a": [1, {"c": 3, "d": 4}], "b": 2}\n'

    def test_failed_publish_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "entry.json"
        target.mkdir()  # the rename onto a directory fails after the tmp write
        with pytest.raises(OSError):
            atomic_write_json(target, {"x": 1})
        assert [path.name for path in tmp_path.iterdir()] == ["entry.json"]
        assert target.is_dir()

    def test_concurrent_writers_leave_one_whole_file(self, tmp_path):
        """Racing writers of one path: the survivor is one complete payload."""
        path = tmp_path / "results" / "entry.json"
        payloads = [
            {"writer": writer, "round": rounds, "pad": "x" * 4096}
            for writer in range(4)
            for rounds in range(25)
        ]

        def write(writer):
            for payload in payloads[writer * 25 : (writer + 1) * 25]:
                atomic_write_json(path, payload)
                assert read_json_tolerant(path) in payloads

        threads = [threading.Thread(target=write, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert read_json_tolerant(path) in payloads
        assert [p.name for p in path.parent.iterdir()] == ["entry.json"]


# ---------------------------------------------------------------------- #
# content-addressed result store
# ---------------------------------------------------------------------- #
class TestResultStore:
    def test_round_trip_is_canonical(self, tmp_path):
        request = make_request()
        result = SchedulingService(cache_size=0).solve(request)
        store = ResultStore(tmp_path)
        assert store.put(request.fingerprint(), result) is True
        loaded = store.get(request.fingerprint())
        assert loaded is not None
        assert loaded.canonical_dict() == result.canonical_dict()
        assert loaded.to_schedule().is_valid()

    def test_missing_reads_as_none(self, tmp_path):
        assert ResultStore(tmp_path).get("0" * 64) is None
        assert ResultStore(tmp_path).contains("0" * 64) is False

    def test_dag_stored_once_across_results(self, tmp_path):
        dag = random_dag(16, 0.25, seed=3)
        service = SchedulingService(cache_size=0, store=tmp_path)
        for scheduler in ("cilk", "hdagg", "bsp_greedy"):
            service.solve(make_request(dag=dag, scheduler=scheduler))
        stats = ResultStore(tmp_path).stats()
        assert stats == {"results": 3, "dags": 1, "trials": 3}

    def test_dag_payload_is_named_by_its_content(self, tmp_path):
        """``put`` writes the DAG payload under its own content hash."""
        dag = random_dag(16, 0.25, seed=3)
        store = ResultStore(tmp_path)
        service = SchedulingService(cache_size=0)
        for scheduler in ("cilk", "hdagg"):
            request = make_request(dag=dag, scheduler=scheduler)
            assert store.put(request.fingerprint(), service.solve(request)) is True
        [payload] = store.dags_dir.glob("*.json")
        ref = payload.stem
        assert dag_dict_fingerprint(store.load_dag_dict(ref)) == ref
        for fingerprint in store.fingerprints():
            stored = read_json_tolerant(store.result_path(fingerprint))
            assert stored["schedule"]["dag_ref"] == ref
            assert "dag" not in stored["schedule"]

    def test_stored_answer_drops_the_cache_hit_flag(self, tmp_path):
        request = make_request()
        result = SchedulingService(cache_size=0).solve(request)
        store = ResultStore(tmp_path)
        store.put(request.fingerprint(), replace(result, cache_hit=True))
        loaded = store.get(request.fingerprint())
        assert loaded.cache_hit is False
        assert loaded.canonical_dict() == result.canonical_dict()

    def test_reads_of_an_absent_root_create_nothing(self, tmp_path):
        root = tmp_path / "absent"
        store = ResultStore(root)
        assert store.fingerprints() == [] and len(store) == 0
        assert store.stats() == {"results": 0, "dags": 0, "trials": 0}
        assert store.gc()["removed_results"] == []
        assert not root.exists()

    def test_put_same_fingerprint_idempotent(self, tmp_path):
        request = make_request()
        result = SchedulingService(cache_size=0).solve(request)
        store = ResultStore(tmp_path)
        assert store.put(request.fingerprint(), result) is True
        assert store.put(request.fingerprint(), result) is False  # kept as-is
        assert len(store) == 1

    def test_corrupt_entry_reads_as_missing_and_is_overwritten(self, tmp_path):
        request = make_request()
        result = SchedulingService(cache_size=0).solve(request)
        store = ResultStore(tmp_path)
        store.put(request.fingerprint(), result)
        store.result_path(request.fingerprint()).write_text("{ not json")
        assert store.get(request.fingerprint()) is None
        # a re-put repairs the corrupt entry instead of skipping it
        assert store.put(request.fingerprint(), result) is True
        assert store.get(request.fingerprint()) is not None

    def test_unresolvable_dag_ref_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ReproError, match="dag_ref"):
            store.load_dag_dict("deadbeef")

    def test_load_schedule_reads_store_entries(self, tmp_path):
        """The back-compat loader resolves dag_ref files sitting in a store."""
        request = make_request()
        service = SchedulingService(cache_size=0, store=tmp_path)
        result = service.solve(request)
        stored_file = ResultStore(tmp_path).result_path(request.fingerprint())
        assert '"dag_ref"' in stored_file.read_text()
        loaded = load_schedule(stored_file)  # store root inferred from path
        assert loaded.is_valid()
        assert loaded.cost() == pytest.approx(result.cost)


# ---------------------------------------------------------------------- #
# service store tier
# ---------------------------------------------------------------------- #
class TestServiceStoreTier:
    def test_cache_info_without_store_unchanged(self):
        service = SchedulingService()
        assert service.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_store_hit_across_service_instances(self, tmp_path):
        request = make_request()
        first = SchedulingService(cache_size=0, store=tmp_path)
        computed = first.solve(request)
        assert first.cache_info()["misses"] == 1

        second = SchedulingService(cache_size=0, store=tmp_path)
        replayed = second.solve(request)
        info = second.cache_info()
        assert info["misses"] == 0
        assert info["store_hits"] == 1
        assert replayed.cache_hit is True
        assert replayed.canonical_dict() == computed.canonical_dict()

    def test_store_populates_memory_tier(self, tmp_path):
        request = make_request()
        SchedulingService(cache_size=0, store=tmp_path).solve(request)
        service = SchedulingService(cache_size=4, store=tmp_path)
        service.solve(request)
        service.solve(request)
        info = service.cache_info()
        assert info["store_hits"] == 1
        assert info["memory_hits"] == 1
        assert info["misses"] == 0

    def test_resume_skips_exactly_the_stored_fingerprints(self, tmp_path):
        """The resume contract: misses == requests not already stored."""
        requests = [make_request(seed=s) for s in range(4)]
        warmup = SchedulingService(cache_size=0, store=tmp_path)
        warmup.solve_many(requests[:2], workers=1)
        assert warmup.cache_info()["misses"] == 2

        resumed = SchedulingService(cache_size=0, store=tmp_path)
        results = resumed.solve_many(requests, workers=1)
        info = resumed.cache_info()
        assert info["misses"] == 2  # only the two new fingerprints
        assert info["store_hits"] == 2
        assert [r.cache_hit for r in results] == [True, True, False, False]

    def test_pool_parallel_batch_persists_every_miss(self, tmp_path):
        requests = [
            make_request(seed=seed, scheduler=scheduler)
            for seed in range(2)
            for scheduler in ("cilk", "bsp_greedy")
        ]
        computed = SchedulingService(cache_size=0, store=tmp_path).solve_many(
            requests, workers=2
        )
        assert ResultStore(tmp_path).fingerprints() == sorted(
            request.fingerprint() for request in requests
        )
        replay = SchedulingService(cache_size=0, store=tmp_path)
        replayed = replay.solve_many(requests, workers=2)
        assert replay.cache_info()["misses"] == 0
        assert [r.canonical_dict() for r in replayed] == [
            r.canonical_dict() for r in computed
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_request_propagates_and_spares_the_store(
        self, tmp_path, workers
    ):
        """A request that cannot be solved fails its batch, not the store.

        The misses solved before the poisoned one in request order are
        stored as they are harvested, so the failed batch keeps them.
        """
        requests = [make_request(seed=s) for s in range(4)]
        SchedulingService(cache_size=0, store=tmp_path).solve_many(
            requests[:2], workers=1
        )
        # 0 -> 1 -> 2 -> 0: edge arrays check acyclicity lazily, the solve does
        cyclic = ComputationalDAG.from_edge_arrays(5, [0, 1, 2, 3], [1, 2, 0, 4])
        poisoned = make_request(dag=cyclic)
        with pytest.raises(CycleError):
            SchedulingService(cache_size=0, store=tmp_path).solve_many(
                requests + [poisoned], workers=workers
            )
        store = ResultStore(tmp_path)
        assert not store.contains(poisoned.fingerprint())
        assert all(store.contains(r.fingerprint()) for r in requests[:2])
        assert all(store.contains(r.fingerprint()) for r in requests[2:4])

        # without the poisoned request the batch completes from the store
        rerun = SchedulingService(cache_size=0, store=tmp_path)
        rerun.solve_many(requests, workers=workers)
        info = rerun.cache_info()
        assert info["store_hits"] == len(requests)
        assert info["misses"] == 0
        assert store.fingerprints() == sorted(r.fingerprint() for r in requests)

    def test_corrupt_store_entry_recomputed(self, tmp_path):
        request = make_request()
        service = SchedulingService(cache_size=0, store=tmp_path)
        computed = service.solve(request)
        path = ResultStore(tmp_path).result_path(request.fingerprint())
        path.write_text(path.read_text()[: 40])  # truncate mid-payload

        fresh = SchedulingService(cache_size=0, store=tmp_path)
        replayed = fresh.solve(request)
        assert fresh.cache_info()["misses"] == 1  # recomputed, not wedged
        assert replayed.canonical_dict() == computed.canonical_dict()
        # and the recompute repaired the entry on disk
        assert ResultStore(tmp_path).contains(request.fingerprint())


# ---------------------------------------------------------------------- #
# resumable experiments
# ---------------------------------------------------------------------- #
class TestResumableExperiments:
    def _grid(self, root):
        runner = ExperimentRunner(config=BUDGET_FREE, store=root)
        instances = build_dataset("tiny", scale="bench", include_coarse=False)[:2]
        specs = [MachineSpec(4, 1, 5), MachineSpec(4, 5, 5)]
        return runner, instances, specs

    def test_warm_store_rerun_zero_invocations_byte_identical(self, tmp_path):
        runner, instances, specs = self._grid(tmp_path)
        cold = run_grid(runner, instances, specs)
        cold_info = runner.service.cache_info()
        assert cold_info["misses"] > 0
        assert cold_info["store_size"] == cold_info["misses"]

        warm_runner, _, _ = self._grid(tmp_path)
        warm = run_grid(warm_runner, instances, specs)
        warm_info = warm_runner.service.cache_info()
        assert warm_info["misses"] == 0  # zero scheduler invocations
        assert warm_info["store_hits"] == cold_info["misses"]

        _, cold_text = table1_no_numa_improvements(cold)
        _, warm_text = table1_no_numa_improvements(warm)
        assert warm_text.encode() == cold_text.encode()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partial_store_resumes_only_the_missing_points(self, tmp_path, workers):
        runner, instances, specs = self._grid(tmp_path)
        run_grid(runner, instances, specs[:1], workers=workers)
        first = runner.service.cache_info()["misses"]

        resumed_runner, _, _ = self._grid(tmp_path)
        resumed = run_grid(resumed_runner, instances, specs, workers=workers)
        info = resumed_runner.service.cache_info()
        assert info["store_hits"] == first
        assert info["misses"] == first  # the second machine point only

        # the resumed records are exactly what a store-less serial run yields
        direct = run_grid(ExperimentRunner(config=BUDGET_FREE), instances, specs, workers=1)
        assert resumed == direct

    @staticmethod
    def _requests(runner, instances, specs):
        """Every request of the grid, in run_grid's serial order."""
        return [
            request
            for instance in instances
            for spec in specs
            for _, request in runner.instance_requests(instance, spec)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scattered_stored_requests_are_skipped(self, tmp_path, workers):
        """Any stored subset is skipped, not just whole instances or machines."""
        runner, instances, specs = self._grid(tmp_path)
        requests = self._requests(runner, instances, specs)
        stored = requests[::2]
        SchedulingService(cache_size=0, store=tmp_path).solve_many(stored, workers=1)

        records = run_grid(runner, instances, specs, workers=workers)
        info = runner.service.cache_info()
        assert info["store_hits"] == len(stored)
        assert info["misses"] == len(requests) - len(stored)
        assert ResultStore(tmp_path).fingerprints() == sorted(
            request.fingerprint() for request in requests
        )
        direct = run_grid(ExperimentRunner(config=BUDGET_FREE), instances, specs, workers=1)
        assert records == direct

    def test_restart_over_crash_debris_loses_and_duplicates_nothing(self, tmp_path):
        """A grid restarted over what a crashed run left behind.

        The debris: the results of an earlier finished call, one of them
        truncated mid-write (as by a writer predating the atomic rename),
        and a write temporary orphaned between its creation and the
        rename.  The restart computes exactly the missing and unreadable
        requests; afterwards every fingerprint is stored once, and a gc
        clears the temporary and the torn entry's second trial row.
        """
        runner, instances, specs = self._grid(tmp_path)
        run_grid(runner, instances[:1], specs, workers=1)
        store = ResultStore(tmp_path)
        kept = store.fingerprints()
        torn = store.result_path(kept[0])
        torn.write_text(torn.read_text()[:40])
        orphan = store.results_dir / f".{kept[1]}.json.deadbeef.tmp"
        orphan.write_text("partial")

        restarted, _, _ = self._grid(tmp_path)
        records = run_grid(restarted, instances, specs, workers=2)
        requests = self._requests(restarted, instances, specs)
        info = restarted.service.cache_info()
        assert info["store_hits"] == len(kept) - 1
        assert info["misses"] == len(requests) - len(kept) + 1
        fingerprints = sorted(request.fingerprint() for request in requests)
        assert store.fingerprints() == fingerprints
        assert all(store.contains(fingerprint) for fingerprint in fingerprints)
        direct = run_grid(ExperimentRunner(config=BUDGET_FREE), instances, specs, workers=1)
        assert records == direct

        # the torn entry was solved twice, everything else once
        trials = [trial.fingerprint for trial in store.trials.trials()]
        assert sorted(set(trials)) == fingerprints
        assert len(trials) == len(fingerprints) + 1
        report = store.gc(tmp_grace_seconds=0.0, prune_trials=True)
        assert report["removed_tmp"] == [f"results/{orphan.name}"]
        assert report["removed_results"] == [] and report["dropped_trials"] == 1
        assert sorted(t.fingerprint for t in store.trials.trials()) == fingerprints

    def test_run_instance_answers_from_a_grid_store(self, tmp_path):
        """The serial per-point driver asks exactly the grid's requests."""
        runner, instances, specs = self._grid(tmp_path)
        records = run_grid(runner, instances, specs, workers=2)
        replay, _, _ = self._grid(tmp_path)
        replayed = [
            replay.run_instance(instance, spec)
            for instance in instances
            for spec in specs
        ]
        assert replay.service.cache_info()["misses"] == 0
        assert replayed == records

    def test_grid_stores_each_instance_dag_once(self, tmp_path):
        runner, instances, specs = self._grid(tmp_path)
        run_grid(runner, instances, specs, workers=2)
        requests = self._requests(runner, instances, specs)
        assert runner.service.cache_info()["misses"] == len(requests)
        assert ResultStore(tmp_path).stats() == {
            "results": len(requests),
            "dags": len(instances),
            "trials": len(requests),
        }

    def test_resumed_grid_records_each_trial_once(self, tmp_path):
        """A resumed grid records only its misses: one trial per stored result."""
        runner, instances, specs = self._grid(tmp_path)
        run_grid(runner, instances, specs[:1])
        resumed, _, _ = self._grid(tmp_path)
        run_grid(resumed, instances, specs, workers=2)
        store = ResultStore(tmp_path)
        grid = {request.fingerprint() for request in self._requests(resumed, instances, specs)}
        assert store.fingerprints() == sorted(grid)
        trials = [trial.fingerprint for trial in store.trials.trials()]
        assert sorted(trials) == sorted(set(trials)) == store.fingerprints()

    def test_pool_parallel_warm_rerun_matches_a_store_less_run(self, tmp_path):
        runner, instances, specs = self._grid(tmp_path)
        run_grid(runner, instances, specs, workers=2)
        warm, _, _ = self._grid(tmp_path)
        records = run_grid(warm, instances, specs, workers=2)
        info = warm.service.cache_info()
        assert info["misses"] == 0
        assert info["store_hits"] == runner.service.cache_info()["misses"]

        direct = run_grid(ExperimentRunner(config=BUDGET_FREE), instances, specs, workers=1)
        assert records == direct
        _, warm_text = table1_no_numa_improvements(records)
        _, direct_text = table1_no_numa_improvements(direct)
        assert warm_text.encode() == direct_text.encode()


# ---------------------------------------------------------------------- #
# store garbage collection
# ---------------------------------------------------------------------- #
class TestStoreGc:
    def _stored(self, tmp_path, **kwargs):
        request = make_request(**kwargs)
        SchedulingService(cache_size=0, store=tmp_path).solve(request)
        return ResultStore(tmp_path), request.fingerprint()

    def test_clean_store_is_untouched(self, tmp_path):
        store, fingerprint = self._stored(tmp_path)
        report = store.gc()
        assert report == {
            "removed_results": [],
            "removed_dags": [],
            "removed_tmp": [],
            "dropped_trials": 0,
        }
        assert store.contains(fingerprint)

    def test_dangling_result_removed(self, tmp_path):
        store, fingerprint = self._stored(tmp_path)
        payload = read_json_tolerant(store.result_path(fingerprint))
        ref = payload["schedule"]["dag_ref"]
        store.dag_path(ref).unlink()  # simulate a hand-pruned payload
        report = store.gc()
        assert report["removed_results"] == [fingerprint]
        assert not store.result_path(fingerprint).exists()

    def _orphan(self, store):
        """A DAG payload no result references."""
        orphan = store.dag_path(dag_dict_fingerprint({"orphan": True}))
        atomic_write_json(orphan, {"orphan": True})
        return orphan

    def test_orphaned_dag_payload_removed(self, tmp_path):
        store, fingerprint = self._stored(tmp_path)
        orphan = self._orphan(store)
        report = store.gc()
        assert report["removed_dags"] == [orphan.stem]
        assert not orphan.exists()
        assert store.contains(fingerprint)  # live entry and its DAG survive

    def test_tmp_grace_period(self, tmp_path):
        store, _ = self._stored(tmp_path)
        clock = FakeClock(now=10_000.0)
        stale = store.results_dir / ".a.json.deadbeef.tmp"
        fresh = store.dags_dir / ".b.json.cafebabe.tmp"
        for path, age in ((stale, 7200.0), (fresh, 60.0)):
            path.write_text("partial")
            os.utime(path, (clock.now - age, clock.now - age))
        report = store.gc(tmp_grace_seconds=3600.0, clock=clock)
        assert report["removed_tmp"] == ["results/.a.json.deadbeef.tmp"]
        assert fresh.exists() and not stale.exists()

    def test_cli_gc_commands(self, tmp_path, capsys):
        from repro.cli import main

        store, _ = self._stored(tmp_path)
        orphan = self._orphan(store)
        assert main(["store", "--root", str(tmp_path), "gc"]) == 0
        assert not orphan.exists()
        assert "1 orphaned DAG payload" in capsys.readouterr().out

    def test_cli_gc_tmp_grace_seconds(self, tmp_path, capsys):
        from repro.cli import main

        store, _ = self._stored(tmp_path)
        stale = store.results_dir / ".x.json.deadbeef.tmp"
        stale.write_text("partial")
        ten_seconds_ago = stale.stat().st_mtime - 10.0
        os.utime(stale, (ten_seconds_ago, ten_seconds_ago))
        assert main(["store", "--root", str(tmp_path), "gc"]) == 0
        assert stale.exists()  # younger than the default hour
        assert "0 stale temporaries" in capsys.readouterr().out
        argv = ["store", "--root", str(tmp_path), "gc", "--tmp-grace-seconds", "5"]
        assert main(argv) == 0
        assert not stale.exists()
        assert "1 stale temporary" in capsys.readouterr().out

    def test_shared_dag_payload_outlives_all_but_its_last_result(self, tmp_path):
        dag = random_dag(16, 0.25, seed=3)
        requests = [make_request(dag=dag, scheduler=s) for s in ("cilk", "hdagg")]
        SchedulingService(cache_size=0, store=tmp_path).solve_many(
            requests, workers=1
        )
        store = ResultStore(tmp_path)
        [payload] = store.dags_dir.glob("*.json")
        store.result_path(requests[0].fingerprint()).unlink()
        assert store.gc()["removed_dags"] == []
        assert payload.exists() and store.contains(requests[1].fingerprint())
        store.result_path(requests[1].fingerprint()).unlink()
        assert store.gc()["removed_dags"] == [payload.stem]
        assert not payload.exists()

    def test_result_with_inline_dag_is_kept(self, tmp_path):
        request = make_request()
        result = SchedulingService(cache_size=0).solve(request)
        store = ResultStore(tmp_path)
        # a hand-copied wire payload: the DAG inline, no dag_ref to resolve
        atomic_write_json(store.result_path(request.fingerprint()), result.to_dict())
        report = store.gc()
        assert report["removed_results"] == [] and report["removed_dags"] == []
        loaded = store.get(request.fingerprint())
        assert loaded.canonical_dict() == result.canonical_dict()

    def test_corrupt_entry_is_left_for_the_next_solve_to_repair(self, tmp_path):
        store, fingerprint = self._stored(tmp_path)
        ref = read_json_tolerant(store.result_path(fingerprint))["schedule"]["dag_ref"]
        store.result_path(fingerprint).write_text("{ not json")
        report = store.gc()
        assert report["removed_results"] == []
        assert store.result_path(fingerprint).exists()
        # an unreadable entry references nothing, so its payload is orphaned
        assert report["removed_dags"] == [ref]
        service = SchedulingService(cache_size=0, store=tmp_path)
        assert service.solve(make_request()).cache_hit is False
        assert store.contains(fingerprint) and store.dag_path(ref).is_file()

    def test_gc_then_resolve_recomputes(self, tmp_path):
        """A gc'd dangling entry is simply recomputed by the next solve."""
        store, fingerprint = self._stored(tmp_path)
        payload = read_json_tolerant(store.result_path(fingerprint))
        store.dag_path(payload["schedule"]["dag_ref"]).unlink()
        store.gc()
        result = SchedulingService(cache_size=0, store=tmp_path).solve(make_request())
        assert result.cache_hit is False
        assert store.contains(fingerprint)


# ---------------------------------------------------------------------- #
# the trial metadata table
# ---------------------------------------------------------------------- #
class TestTrialRecords:
    def _requests(self, schedulers=("cilk", "bsp_greedy"), seeds=(0,)):
        dag = random_dag(16, 0.25, seed=3)
        dag.name = "erdos_16"
        return [
            make_request(dag=dag, scheduler=scheduler, seed=seed)
            for scheduler in schedulers
            for seed in seeds
        ]

    def test_solve_records_one_trial_per_actual_invocation(self, tmp_path):
        service = SchedulingService(cache_size=0, store=tmp_path)
        request = self._requests()[0]
        service.solve(request)
        trials = ResultStore(tmp_path).trials.trials()
        assert len(trials) == 1
        record = trials[0]
        assert record.fingerprint == request.fingerprint()
        assert record.scheduler == "cilk"
        assert record.family == "erdos"
        assert record.num_nodes == 16
        assert record.machine["num_procs"] == 4
        assert record.cost > 0
        assert record.created_at > 0

    def test_cache_and_store_hits_record_nothing(self, tmp_path):
        """Trials mean scheduler invocations, not lookups."""
        request = self._requests()[0]
        SchedulingService(cache_size=0, store=tmp_path).solve(request)
        warm = SchedulingService(store=tmp_path)
        warm.solve(request)  # store hit
        warm.solve(request)  # memory hit
        assert len(ResultStore(tmp_path).trials) == 1

    def test_solve_many_records_unique_misses_only(self, tmp_path):
        requests = self._requests(seeds=(0, 1))
        duplicated = requests + [requests[0]]
        SchedulingService(cache_size=0, store=tmp_path).solve_many(
            duplicated, workers=1
        )
        trials = ResultStore(tmp_path).trials.trials()
        assert len(trials) == len(requests)
        assert {t.fingerprint for t in trials} == {
            r.fingerprint() for r in requests
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_follow_request_order(self, tmp_path, workers):
        """Misses are recorded as they are harvested, in request order."""
        requests = self._requests(seeds=(0, 1))
        SchedulingService(cache_size=0, store=tmp_path).solve_many(
            requests, workers=workers
        )
        trials = ResultStore(tmp_path).trials.trials()
        assert [t.fingerprint for t in trials] == [r.fingerprint() for r in requests]

    def test_torn_line_skipped_not_fatal(self, tmp_path):
        service = SchedulingService(cache_size=0, store=tmp_path)
        service.solve(self._requests()[0])
        log = ResultStore(tmp_path).trials
        with open(log.trials_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "trial", "fingerprint"')  # dying writer
        assert len(log.trials()) == 1

    def test_pool_parallel_grid_populates_the_table(self, tmp_path):
        runner = ExperimentRunner(config=BUDGET_FREE, store=tmp_path)
        instances = build_dataset("tiny", scale="bench", include_coarse=False)[:2]
        run_grid(runner, instances, [MachineSpec(4, 1, 5)], workers=2)
        store = ResultStore(tmp_path)
        trials = store.trials.trials()
        assert len(trials) == runner.service.cache_info()["misses"] == 6
        assert {t.scheduler for t in trials} == {"cilk", "hdagg", "framework"}
        assert sorted(t.fingerprint for t in trials) == store.fingerprints()
        assert {t.dag_name for t in trials} == {i.dag.name for i in instances}
        for trial in trials:
            assert trial.cost == store.get(trial.fingerprint).cost

    def test_stats_count_trials(self, tmp_path):
        SchedulingService(cache_size=0, store=tmp_path).solve_many(
            self._requests(), workers=1
        )
        stats = ResultStore(tmp_path).stats()
        assert stats["trials"] == 2
        assert stats["results"] == 2


class TestGcTrialPreservation:
    """gc never orphans a trial record from its result, nor vice versa."""

    def _populated(self, tmp_path):
        dag = random_dag(16, 0.25, seed=3)
        dag.name = "erdos_16"
        requests = [
            make_request(dag=dag, scheduler=s) for s in ("cilk", "bsp_greedy")
        ]
        SchedulingService(cache_size=0, store=tmp_path).solve_many(
            requests, workers=1
        )
        return ResultStore(tmp_path), requests

    def test_default_gc_never_touches_the_tables(self, tmp_path):
        store, requests = self._populated(tmp_path)
        # even with every result dangling, the history survives a plain gc
        for path in store.dags_dir.glob("*.json"):
            path.unlink()
        report = store.gc()
        assert len(report["removed_results"]) == 2
        assert report["dropped_trials"] == 0
        assert len(store.trials) == 2

    def test_prune_drops_exactly_the_recordless_results(self, tmp_path):
        store, requests = self._populated(tmp_path)
        gone = requests[0].fingerprint()
        store.result_path(gone).unlink()
        report = store.gc(prune_trials=True)
        assert report["dropped_trials"] == 1
        survivors = {t.fingerprint for t in store.trials.trials()}
        assert survivors == {requests[1].fingerprint()}
        # every record has a result
        for fingerprint in survivors:
            assert store.contains(fingerprint)

    def test_prune_collapses_duplicate_records(self, tmp_path):
        """A crashed worker's recompute appends a second row; prune dedups."""
        store, requests = self._populated(tmp_path)
        duplicate = store.trials.trials()[0]
        store.trials.append_trial(duplicate)
        assert len(store.trials) == 3
        report = store.gc(prune_trials=True)
        assert report["dropped_trials"] == 1  # the duplicate, nothing else
        assert len(store.trials) == 2

    def test_cli_prune_flag(self, tmp_path, capsys):
        from repro.cli import main

        store, requests = self._populated(tmp_path)
        store.result_path(requests[0].fingerprint()).unlink()
        assert main(["store", "--root", str(tmp_path), "gc"]) == 0
        assert "pruned" not in capsys.readouterr().out
        assert len(store.trials) == 2  # untouched without the flag
        code = main(["store", "--root", str(tmp_path), "gc", "--prune-trials"])
        assert code == 0
        assert "pruned 1 trial record(s)" in capsys.readouterr().out
        assert len(store.trials) == 1
