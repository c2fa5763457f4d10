"""Tests for the persistent scheduling service (repro.store).

Covers the three layers of the subsystem and their crash-recovery
guarantees:

* the filesystem primitives (atomic publish, tolerant reads, atomic claim),
* the content-addressed result store (round trips, DAG deduplication,
  corrupt entries reading as missing and being recomputed),
* the durable work queue + dispatcher (lease expiry after simulated worker
  death, terminal failures, a killed-and-restarted fleet completing a
  queued grid with no lost or duplicated results),
* resumable experiments (a warm store answers a whole re-run with zero
  scheduler invocations and byte-identical tables).
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.analysis.experiments import ExperimentRunner, enqueue_grid, run_grid
from repro.analysis.tables import table1_no_numa_improvements
from repro.api import (
    MachineSpec,
    ScheduleRequest,
    SchedulerSpec,
    SchedulingService,
)
from repro.core import load_schedule
from repro.core.exceptions import ReproError
from repro.dagdb import build_dataset
from repro.schedulers.pipeline import PipelineConfig
from repro.store import Dispatcher, ResultStore, WorkQueue, dag_dict_fingerprint
from repro.store.fsio import atomic_write_json, claim_rename, read_json_tolerant

from conftest import build_diamond_dag, random_dag

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
    """Injectable epoch-seconds source for deterministic lease expiry."""

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

    def test_claim_rename_exactly_one_winner(self, tmp_path):
        source = tmp_path / "pending" / "entry.json"
        atomic_write_json(source, {"fingerprint": "f"})
        target = tmp_path / "leased" / "entry.json"
        assert claim_rename(source, target) is True
        # the losing racer observes the source gone and backs off
        assert claim_rename(source, tmp_path / "leased2" / "entry.json") is False
        assert read_json_tolerant(target) == {"fingerprint": "f"}


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

    def test_put_dag_deduplicates(self, tmp_path):
        store = ResultStore(tmp_path)
        dag = build_diamond_dag()
        path1 = store.put_dag(dag)
        path2 = store.put_dag(dag)
        assert path1 == path2
        assert store.stats()["dags"] == 1
        ref = path1.stem
        assert dag_dict_fingerprint(store.load_dag_dict(ref)) == ref

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
# durable work queue
# ---------------------------------------------------------------------- #
class TestWorkQueue:
    def test_submit_deduplicates(self, tmp_path):
        queue = WorkQueue(tmp_path)
        wire = make_request().to_dict()
        assert queue.submit("f1", wire) is True
        assert queue.submit("f1", wire) is False
        assert queue.stats() == {"pending": 1, "leased": 0, "failed": 0}

    def test_lease_partitions_between_workers(self, tmp_path):
        queue = WorkQueue(tmp_path)
        wire = make_request().to_dict()
        for i in range(4):
            queue.submit(f"f{i}", wire)
        a = queue.lease("worker-a", limit=2)
        b = queue.lease("worker-b")
        assert len(a) == 2 and len(b) == 2
        assert {t.fingerprint for t in a} | {t.fingerprint for t in b} == {
            "f0", "f1", "f2", "f3"
        }
        assert queue.lease("worker-c") == []  # nothing left to claim

    def test_lease_expiry_after_simulated_worker_death(self, tmp_path):
        clock = FakeClock()
        queue = WorkQueue(tmp_path, clock=clock)
        queue.submit("f1", make_request().to_dict())
        [task] = queue.lease("doomed-worker", lease_seconds=300)
        assert task.attempts == 1
        # the worker dies; nothing renews the lease
        clock.advance(301)
        requeued, failed = queue.expire_leases(max_attempts=3, lease_seconds=300)
        assert requeued == ["f1"] and failed == []
        # the entry is claimable again, with its attempt counter preserved
        [retry] = queue.lease("successor-worker", lease_seconds=300)
        assert retry.attempts == 2
        assert retry.request == task.request

    def test_live_lease_not_expired(self, tmp_path):
        clock = FakeClock()
        queue = WorkQueue(tmp_path, clock=clock)
        queue.submit("f1", make_request().to_dict())
        queue.lease("alive-worker", lease_seconds=300)
        clock.advance(200)
        assert queue.expire_leases(lease_seconds=300) == ([], [])
        assert queue.renew("f1", "alive-worker", lease_seconds=300) is True
        clock.advance(200)  # 400s total, but renewed at 200s
        assert queue.expire_leases(lease_seconds=300) == ([], [])

    def test_renew_rejects_non_owner(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.submit("f1", make_request().to_dict())
        queue.lease("worker-a")
        assert queue.renew("f1", "worker-b") is False

    def test_terminal_failure_after_max_attempts(self, tmp_path):
        clock = FakeClock()
        queue = WorkQueue(tmp_path, clock=clock)
        queue.submit("f1", make_request().to_dict())
        for _ in range(3):
            queue.lease("crashy-worker", lease_seconds=10)
            clock.advance(11)
            queue.expire_leases(max_attempts=3, lease_seconds=10)
        assert queue.pending() == [] and queue.leased() == []
        failures = queue.failures()
        assert list(failures) == ["f1"]
        assert "presumed dead" in failures["f1"]
        # terminal failures can be requeued explicitly
        assert queue.retry_failed() == ["f1"]
        assert queue.stats() == {"pending": 1, "leased": 0, "failed": 0}

    def test_complete_drops_entry(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.submit("f1", make_request().to_dict())
        queue.lease("worker-a")
        queue.complete("f1")
        assert queue.stats() == {"pending": 0, "leased": 0, "failed": 0}


# ---------------------------------------------------------------------- #
# dispatcher + worker fleet
# ---------------------------------------------------------------------- #
class TestDispatcher:
    def _enqueue(self, root, seeds=(0, 1, 2)):
        store = ResultStore(root)
        queue = WorkQueue(root)
        fingerprints = []
        for seed in seeds:
            request = make_request(seed=seed)
            fingerprint = request.fingerprint()
            dag_path = store.put_dag(request.resolve_dag())
            wire = replace(
                request, dag=str(dag_path), _resolved_dag=None, _fingerprint=fingerprint
            ).to_dict()
            queue.submit(fingerprint, wire)
            fingerprints.append(fingerprint)
        return fingerprints

    def test_drain_completes_queue_into_store(self, tmp_path):
        fingerprints = self._enqueue(tmp_path)
        report = Dispatcher(tmp_path, workers=1).drain()
        assert sorted(report.completed) == sorted(fingerprints)
        assert report.failed == {}
        store = ResultStore(tmp_path)
        assert store.fingerprints() == sorted(fingerprints)
        assert WorkQueue(tmp_path).stats() == {"pending": 0, "leased": 0, "failed": 0}

    def test_killed_fleet_restart_loses_and_duplicates_nothing(self, tmp_path):
        """A worker dies mid-batch; a restarted fleet finishes the grid.

        The dead worker is simulated at the two dangerous points: after
        persisting a result but before completing its queue entry, and
        before persisting anything.  The restarted dispatcher must complete
        every fingerprint exactly once — the persisted one without
        recomputation.
        """
        clock = FakeClock()
        fingerprints = self._enqueue(tmp_path)
        queue = WorkQueue(tmp_path, clock=clock)
        store = ResultStore(tmp_path)

        # the doomed worker leases the whole grid ...
        tasks = queue.lease("doomed-worker", lease_seconds=300)
        assert len(tasks) == len(fingerprints)
        # ... persists exactly one result, then crashes (entries stay leased)
        done = tasks[0]
        result = SchedulingService(cache_size=0).solve(
            ScheduleRequest.from_dict(done.request)
        )
        store.put(done.fingerprint, result)
        clock.advance(301)  # the fleet is restarted after the leases expired

        restarted = Dispatcher(tmp_path, workers=1, lease_seconds=300, clock=clock)
        report = restarted.drain()
        # nothing lost: every fingerprint ended in the store exactly once
        assert store.fingerprints() == sorted(fingerprints)
        assert sorted(report.requeued) == sorted(fingerprints)
        # nothing duplicated: the persisted result was completed, not re-run
        assert report.skipped == [done.fingerprint]
        assert sorted(report.completed) == sorted(
            f for f in fingerprints if f != done.fingerprint
        )
        assert report.failed == {}
        assert queue.stats() == {"pending": 0, "leased": 0, "failed": 0}

    def test_poisoned_request_fails_terminally_without_wedging(self, tmp_path):
        good = make_request(seed=0)
        queue = WorkQueue(tmp_path)
        queue.submit(good.fingerprint(), good.to_dict())
        bad_wire = make_request(seed=1).to_dict()
        bad_wire["scheduler"] = {"name": "no_such_scheduler", "params": {}}
        queue.submit("bad-entry", bad_wire)

        report = Dispatcher(tmp_path, workers=1).drain(max_batches=4)
        assert report.completed == [good.fingerprint()]
        assert set(report.failed) == {"bad-entry"}
        failures = WorkQueue(tmp_path).failures()
        assert "bad-entry" in failures
        assert ResultStore(tmp_path).fingerprints() == [good.fingerprint()]

    def test_run_once_skips_already_stored(self, tmp_path):
        [fingerprint] = self._enqueue(tmp_path, seeds=(5,))
        request = ScheduleRequest.from_dict(WorkQueue(tmp_path).request_dict(fingerprint))
        ResultStore(tmp_path).put(
            fingerprint, SchedulingService(cache_size=0).solve(request)
        )
        report = Dispatcher(tmp_path, workers=1).run_once()
        assert report.skipped == [fingerprint]
        assert report.completed == []


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

    def test_partial_store_resumes_only_the_missing_points(self, tmp_path):
        runner, instances, specs = self._grid(tmp_path)
        run_grid(runner, instances, specs[:1])
        first = runner.service.cache_info()["misses"]

        resumed_runner, _, _ = self._grid(tmp_path)
        run_grid(resumed_runner, instances, specs)
        info = resumed_runner.service.cache_info()
        assert info["store_hits"] == first
        assert info["misses"] == first  # the second machine point only

    def test_enqueue_grid_then_fleet_then_assembly(self, tmp_path):
        runner, instances, specs = self._grid(tmp_path)
        fingerprints = enqueue_grid(runner, instances, specs, tmp_path)
        assert len(fingerprints) == len(set(fingerprints))
        # one shared DAG payload per instance, not per request
        assert ResultStore(tmp_path).stats()["dags"] == len(instances)
        # re-enqueueing is a no-op (still pending)
        assert enqueue_grid(runner, instances, specs, tmp_path) == []

        report = Dispatcher(tmp_path, workers=1).drain()
        assert sorted(report.completed) == sorted(fingerprints)

        assembly_runner, _, _ = self._grid(tmp_path)
        records = run_grid(assembly_runner, instances, specs)
        assert assembly_runner.service.cache_info()["misses"] == 0
        direct_runner = ExperimentRunner(config=BUDGET_FREE)
        direct = run_grid(direct_runner, instances, specs)
        assert [r.costs for r in records] == [r.costs for r in direct]

    def test_enqueue_skips_already_stored(self, tmp_path):
        runner, instances, specs = self._grid(tmp_path)
        run_grid(runner, instances, specs[:1])  # store the first point
        fingerprints = enqueue_grid(runner, instances, specs, tmp_path)
        stored = set(ResultStore(tmp_path).fingerprints())
        assert stored.isdisjoint(fingerprints)
        assert len(fingerprints) > 0


# ---------------------------------------------------------------------- #
# lease heartbeat
# ---------------------------------------------------------------------- #
class TestLeaseHeartbeat:
    def _leased_queue(self, tmp_path, clock, lease_seconds=100.0):
        queue = WorkQueue(tmp_path, clock=clock)
        queue.submit("fp", {"x": 1})
        tasks = queue.lease("w1", lease_seconds=lease_seconds)
        assert [t.fingerprint for t in tasks] == ["fp"]
        return queue

    def test_renewal_keeps_long_solve_leased(self, tmp_path):
        from repro.store import LeaseHeartbeat

        clock = FakeClock()
        queue = self._leased_queue(tmp_path, clock)
        heartbeat = LeaseHeartbeat(
            queue, "fp", "w1", lease_seconds=100.0, interval=30.0, clock=clock
        )
        # a solve running well past the original deadline, beating as it goes
        for _ in range(6):
            clock.advance(40.0)
            assert heartbeat.maybe_beat()
        requeued, failed = queue.expire_leases(lease_seconds=100.0)
        assert requeued == [] and failed == []
        assert heartbeat.renewals == 6
        assert queue.leased() == ["fp"]

    def test_interval_gates_renewals(self, tmp_path):
        from repro.store import LeaseHeartbeat

        clock = FakeClock()
        queue = self._leased_queue(tmp_path, clock)
        heartbeat = LeaseHeartbeat(
            queue, "fp", "w1", lease_seconds=100.0, interval=30.0, clock=clock
        )
        clock.advance(10.0)
        assert heartbeat.maybe_beat() and heartbeat.renewals == 0  # too soon
        clock.advance(25.0)
        assert heartbeat.maybe_beat() and heartbeat.renewals == 1

    def test_without_heartbeat_the_lease_expires(self, tmp_path):
        clock = FakeClock()
        queue = self._leased_queue(tmp_path, clock)
        clock.advance(150.0)
        requeued, _ = queue.expire_leases(lease_seconds=100.0)
        assert requeued == ["fp"]

    def test_lost_lease_detected_and_renewals_stop(self, tmp_path):
        from repro.store import LeaseHeartbeat

        clock = FakeClock()
        queue = self._leased_queue(tmp_path, clock)
        # the worker goes silent; another dispatcher expires and re-claims
        clock.advance(150.0)
        queue.expire_leases(lease_seconds=100.0)
        queue.lease("w2", lease_seconds=100.0)
        heartbeat = LeaseHeartbeat(
            queue, "fp", "w1", lease_seconds=100.0, interval=1.0, clock=clock
        )
        clock.advance(5.0)
        assert not heartbeat.maybe_beat()
        assert heartbeat.lost and heartbeat.renewals == 0
        clock.advance(5.0)
        assert not heartbeat.maybe_beat()  # stays lost, no further attempts

    def test_threaded_mode_renews_in_real_time(self, tmp_path):
        from repro.store import LeaseHeartbeat

        queue = WorkQueue(tmp_path)
        queue.submit("fp", {"x": 1})
        queue.lease("w1", lease_seconds=60.0)
        with LeaseHeartbeat(
            queue, "fp", "w1", lease_seconds=60.0, interval=0.02
        ) as heartbeat:
            deadline = time.time() + 5.0
            while heartbeat.renewals == 0 and time.time() < deadline:
                time.sleep(0.01)
        assert heartbeat.renewals >= 1 and not heartbeat.lost

    def test_dispatcher_long_solve_is_not_requeued(self, tmp_path, monkeypatch):
        """A solve longer than the lease completes exactly once under heartbeat."""
        import repro.store.dispatcher as dispatcher_mod

        request = make_request(scheduler="cilk")
        queue = WorkQueue(tmp_path)
        queue.submit(request.fingerprint(), request.to_dict())

        original = dispatcher_mod._worker_service

        class SlowService:
            def __init__(self, inner):
                self._inner = inner

            def solve(self, req):
                time.sleep(0.3)  # several lease periods long
                return self._inner.solve(req)

        monkeypatch.setattr(
            dispatcher_mod,
            "_worker_service",
            lambda root: SlowService(original(root)),
        )
        dispatcher = Dispatcher(tmp_path, workers=1, lease_seconds=0.1)
        report = dispatcher.run_once()
        assert report.completed == [request.fingerprint()]
        # the heartbeat kept the lease: nothing left to expire or requeue
        requeued, failed = queue.expire_leases(lease_seconds=0.1)
        assert requeued == [] and failed == []
        assert queue.stats() == {"pending": 0, "leased": 0, "failed": 0}


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
            "dropped_experiments": 0,
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

    def test_orphaned_dag_payload_removed(self, tmp_path):
        store, fingerprint = self._stored(tmp_path)
        orphan = store.put_dag({"orphan": True})
        report = store.gc()
        assert report["removed_dags"] == [orphan.stem]
        assert not orphan.exists()
        assert store.contains(fingerprint)  # live entry and its DAG survive

    def test_queued_request_keeps_its_dag_payload(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put_dag({"queued": True})
        WorkQueue(tmp_path).submit("fp", {"dag_ref": str(path), "machine": {}})
        assert store.gc()["removed_dags"] == []
        assert path.exists()

    def test_tmp_grace_period(self, tmp_path):
        import os

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
        orphan = store.put_dag({"orphan": True})
        assert main(["store", "--root", str(tmp_path), "gc"]) == 0
        assert not orphan.exists()
        assert "1 orphaned DAG payload" in capsys.readouterr().out
        assert main(["queue", "--root", str(tmp_path), "gc"]) == 0

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
# the trial/experiment metadata tables
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

    def test_dispatcher_fleet_populates_the_table(self, tmp_path):
        store = ResultStore(tmp_path)
        queue = WorkQueue(tmp_path)
        for request in self._requests():
            queue.submit(request.fingerprint(), request.to_dict())
        Dispatcher(tmp_path, workers=1).drain()
        assert len(store.trials) == 2
        assert {t.scheduler for t in store.trials.trials()} == {
            "cilk",
            "bsp_greedy",
        }

    def test_torn_line_skipped_not_fatal(self, tmp_path):
        service = SchedulingService(cache_size=0, store=tmp_path)
        service.solve(self._requests()[0])
        log = ResultStore(tmp_path).trials
        with open(log.trials_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "trial", "fingerprint"')  # dying writer
        assert len(log.trials()) == 1

    def test_named_experiment_recorded(self, tmp_path):
        runner = ExperimentRunner(config=BUDGET_FREE, store=tmp_path)
        instances = build_dataset("tiny", scale="bench", include_coarse=False)[:1]
        specs = [MachineSpec(4, 1, 5)]
        run_grid(runner, instances, specs, experiment="smoke-grid")
        experiments = ResultStore(tmp_path).trials.experiments()
        assert [record.name for record in experiments] == ["smoke-grid"]
        # on a cold store the batch is exactly the recorded trials
        stored = {f for record in experiments for f in record.fingerprints}
        trials = {t.fingerprint for t in ResultStore(tmp_path).trials.trials()}
        assert stored == trials
        # an unnamed grid records no experiment row
        run_grid(
            ExperimentRunner(config=BUDGET_FREE, store=tmp_path),
            instances,
            specs,
        )
        assert len(ResultStore(tmp_path).trials.experiments()) == 1

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
        store.trials.record_experiment(
            "grid", [r.fingerprint() for r in requests]
        )
        # even with every result dangling, the history survives a plain gc
        for path in store.dags_dir.glob("*.json"):
            path.unlink()
        report = store.gc()
        assert len(report["removed_results"]) == 2
        assert report["dropped_trials"] == 0
        assert len(store.trials) == 2
        assert len(store.trials.experiments()) == 1

    def test_prune_drops_exactly_the_recordless_results(self, tmp_path):
        store, requests = self._populated(tmp_path)
        store.trials.record_experiment(
            "grid", [r.fingerprint() for r in requests]
        )
        gone = requests[0].fingerprint()
        store.result_path(gone).unlink()
        report = store.gc(prune_trials=True)
        assert report["dropped_trials"] == 1
        assert report["dropped_experiments"] == 0
        survivors = {t.fingerprint for t in store.trials.trials()}
        assert survivors == {requests[1].fingerprint()}
        # invariant both ways: every record has a result...
        for fingerprint in survivors:
            assert store.contains(fingerprint)
        # ...and the experiment references only surviving trials
        experiment = store.trials.experiments()[0]
        assert experiment.fingerprints == [requests[1].fingerprint()]

    def test_prune_drops_experiments_left_empty(self, tmp_path):
        store, requests = self._populated(tmp_path)
        store.trials.record_experiment("grid", [requests[0].fingerprint()])
        store.result_path(requests[0].fingerprint()).unlink()
        report = store.gc(prune_trials=True)
        assert report["dropped_experiments"] == 1
        assert store.trials.experiments() == []

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
