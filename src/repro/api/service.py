"""The batched scheduling-service facade.

:class:`SchedulingService` is the single entry point every caller funnels
through — the CLI, the experiment harness and the examples all build
:class:`~repro.api.ScheduleRequest` objects and hand them here.

* :meth:`~SchedulingService.solve` runs one request: resolve the DAG and
  machine, build the scheduler from its declarative spec, restart the
  budget clock, run, and wrap the outcome in a self-contained
  :class:`~repro.api.ScheduleResult` (with the per-stage cost trace when
  the scheduler is a pipeline).
* :meth:`~SchedulingService.solve_many` fans a batch out over the shared
  process-pool machinery (:mod:`repro.core.parallel`, the same contract as
  the experiment grid): results come back in request order, pool failures
  degrade to serial execution, and for deterministic-budget requests the
  parallel canonical payloads are bit-identical to serial ones.
* Results are cached **content-addressed**: the cache key is the request
  fingerprint (DAG content + machine + spec + budget + seed), so a replayed
  request is answered without recomputation — across ``solve`` and
  ``solve_many`` alike.  Cache hits are flagged (``result.cache_hit``) and
  counted (:meth:`cache_info`).
* With ``store=`` the cache gains a **persistent tier**: misses of the
  in-memory LRU consult a content-addressed on-disk store
  (:class:`repro.store.ResultStore`) shared across processes and CI runs,
  and every computed result is persisted there.  Re-running any workload
  against a warm store performs zero scheduler invocations.
* ``solve_many``'s process pool ships **each distinct DAG once per
  worker**, not once per request: misses are grouped by DAG content
  fingerprint, the deduplicated DAG table rides the pool initializer, and
  both requests and returned payloads cross the pipe DAG-free (results
  come back in dag_ref mode and are re-embedded on the parent side, so
  callers still observe fully self-contained payloads, bit-identical to a
  serial run).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from ..core.exceptions import CycleError
from ..core.parallel import parallel_map
from ..core.serialization import dag_to_dict, schedule_to_dict
from ..schedulers.pipeline import SchedulingPipeline
from .request import ScheduleRequest, dag_fingerprint
from .result import ScheduleResult

__all__ = ["SchedulingService"]


def _coerce_request(request: ScheduleRequest | dict) -> ScheduleRequest:
    if isinstance(request, dict):
        return ScheduleRequest.from_dict(request)
    return request


@dataclass(frozen=True)
class _SharedDag:
    """Placeholder DAG reference inside a request crossing the worker pipe.

    The actual DAG travels once per worker in the pool payload table,
    keyed by its content fingerprint; the worker substitutes it back
    before solving.
    """

    ref: str


def _solve_request(request: ScheduleRequest) -> ScheduleResult:
    """Run one request to completion (no cache; shared by solve paths)."""
    fingerprint = request.fingerprint()
    started = time.perf_counter()
    dag = request.resolve_dag()
    # both the lazy edge-array constructor and the default `.hdagb` load
    # accept a cycle; some schedulers would loop on one forever.  The
    # DAG caches the levels this computes, so repeat requests pay nothing.
    if not dag.is_acyclic():
        raise CycleError(f"DAG {dag.name!r} contains a directed cycle")
    machine = request.build_machine()
    scheduler = request.scheduler.build(default_seed=request.seed)
    budget = None if request.budget is None else request.budget.started()
    prepared = time.perf_counter()
    stages = None
    if isinstance(scheduler, SchedulingPipeline):
        pipeline_result = scheduler.schedule_with_stages(dag, machine, budget)
        schedule = pipeline_result.schedule
        stages = pipeline_result.stages
    else:
        schedule = scheduler.schedule(dag, machine, budget)
    finished = time.perf_counter()
    return ScheduleResult.from_schedule(
        schedule,
        scheduler=request.scheduler.name,
        fingerprint=fingerprint,
        stages=stages,
        timings={
            "prepare_seconds": prepared - started,
            "solve_seconds": finished - prepared,
            "total_seconds": finished - started,
        },
    )


def _solve_task(
    shared_dags: dict[str, object], request: ScheduleRequest
) -> ScheduleResult:
    """Module-level pool handler (see :func:`repro.core.parallel.parallel_map`).

    ``shared_dags`` is the per-worker DAG table (shipped once by the pool
    initializer); a request carrying a :class:`_SharedDag` placeholder gets
    its DAG substituted from it.  Results for such requests return in
    dag_ref mode — the parent re-embeds from its own copy of the DAG — so
    the (potentially huge) instance never crosses the pipe per task in
    either direction.
    """
    shared_ref = None
    if isinstance(request.dag, _SharedDag):
        shared_ref = request.dag.ref
        request = replace(request, dag=shared_dags[shared_ref])
    result = _solve_request(request)
    # serialise eagerly in the worker and ship only the wire dict: the live
    # schedule object would carry the whole instance across the pipe a
    # second time, and the parent can rebuild it lazily via to_schedule()
    if shared_ref is not None:
        # shared-DAG request: return in dag_ref mode without ever building
        # the (dominant-cost) DAG payload; the parent re-embeds its copy
        payload = schedule_to_dict(result.to_schedule(), include_dag=False)
        payload["dag_ref"] = shared_ref
        return replace(result, _schedule=None, _schedule_dict=payload)
    result.schedule_dict()
    return replace(result, _schedule=None)


class SchedulingService:
    """Stateless solve facade with batched fan-out and content-addressed caching.

    Parameters
    ----------
    cache_size:
        Maximum number of results kept in memory (LRU).  ``0`` disables
        the in-memory tier, ``None`` means unbounded.  The cache is keyed
        by the request fingerprint, so only bit-identical requests (same
        DAG content, machine, spec, budget, seed) ever share an entry.
        Note that wall-clock-budget requests are cacheable but not
        deterministic — a replay may legitimately return the cached
        (different-depth) result; deterministic-budget requests replay
        exactly.
    store:
        Optional persistent tier: a :class:`repro.store.ResultStore` or a
        store root path.  In-memory misses consult it before computing,
        and every computed result is persisted to it — so the cache is
        shared across processes and CI runs, and a warm store answers
        whole replayed workloads with zero scheduler invocations.
        ``cache_size=0`` with a store still uses (and fills) the
        persistent tier.
    """

    def __init__(self, cache_size: int | None = 256, store=None) -> None:
        self.cache_size = cache_size
        if isinstance(store, (str, Path)):
            from ..store.results import ResultStore

            store = ResultStore(store)
        self.store = store
        self._cache: OrderedDict[str, ScheduleResult] = OrderedDict()
        self._memory_hits = 0
        self._store_hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    # cache plumbing
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and the current entry count.

        ``hits``/``misses``/``size`` keep their historical meaning (a hit
        from *either* tier counts; ``misses`` is exactly the number of
        scheduler invocations performed).  With a persistent store
        attached, the per-tier breakdown and the store entry count are
        reported additionally.
        """
        info = {
            "hits": self._memory_hits + self._store_hits,
            "misses": self._misses,
            "size": len(self._cache),
        }
        if self.store is not None:
            info["memory_hits"] = self._memory_hits
            info["store_hits"] = self._store_hits
            info["store_size"] = len(self.store)
        return info

    def clear_cache(self) -> None:
        """Drop the in-memory tier (counters included); the store persists."""
        self._cache.clear()
        self._memory_hits = 0
        self._store_hits = 0
        self._misses = 0

    def _cache_get(self, fingerprint: str) -> ScheduleResult | None:
        if self.cache_size != 0:
            result = self._cache.get(fingerprint)
            if result is not None:
                self._cache.move_to_end(fingerprint)
                self._memory_hits += 1
                # hits are flagged on a shallow copy so the cached entry
                # itself stays pristine for the next caller
                return replace(result, cache_hit=True)
        if self.store is not None:
            stored = self.store.get(fingerprint)
            if stored is not None:
                self._store_hits += 1
                self._memory_put(fingerprint, stored)
                return replace(stored, cache_hit=True)
        self._misses += 1
        return None

    def _memory_put(self, fingerprint: str, result: ScheduleResult) -> None:
        if self.cache_size == 0:
            return
        self._cache[fingerprint] = result
        self._cache.move_to_end(fingerprint)
        if self.cache_size is not None:
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _cache_put(self, fingerprint: str, result: ScheduleResult) -> None:
        self._memory_put(fingerprint, result)
        if self.store is not None:
            self.store.put(fingerprint, result)

    def _record_trial(self, request: ScheduleRequest, result: ScheduleResult) -> None:
        """Append one trial record for an actual scheduler invocation.

        Only store-backed computes are recorded (cache and store hits are
        answers, not trials), so the ``trials.jsonl`` table next to the
        store is exactly the history of performed work — what the report
        subsystem (:mod:`repro.analysis.report`) aggregates.
        """
        if self.store is None:
            return
        from ..store.trials import TrialRecord

        self.store.trials.append_trial(TrialRecord.from_solve(request, result))

    # ------------------------------------------------------------------ #
    def solve(self, request: ScheduleRequest | dict) -> ScheduleResult:
        """Solve one request (dict-form requests are deserialized first)."""
        request = _coerce_request(request)
        fingerprint = request.fingerprint()
        cached = self._cache_get(fingerprint)
        if cached is not None:
            return cached
        result = _solve_request(request)
        self._cache_put(fingerprint, result)
        self._record_trial(request, result)
        return result

    def solve_many(
        self,
        requests: list[ScheduleRequest | dict],
        workers: int | None = None,
    ) -> list[ScheduleResult]:
        """Solve a batch, optionally pool-parallel; results in request order.

        Cached requests are answered without touching the pool; only the
        misses fan out.  ``workers=None`` reads ``REPRO_WORKERS`` (default
        1 = serial).  For deterministic-budget requests a parallel batch
        returns canonical payloads bit-identical to a serial one; see
        :mod:`repro.core.parallel` for the pool degradation contract.

        Misses are grouped by DAG content fingerprint:
        each distinct in-memory DAG crosses the worker pipe once per
        worker (in the pool payload), not once per request, and results
        travel back DAG-free (re-embedded on this side) — a whole machine
        grid over one instance ships it O(workers) times instead of
        O(requests) times in each direction.

        Misses reach the persistent store only after the whole batch
        returns, so a batch killed mid-run loses all of its in-flight
        misses; results stored by earlier calls are kept.
        """
        coerced = [_coerce_request(request) for request in requests]
        fingerprints = [request.fingerprint() for request in coerced]
        results: list[ScheduleResult | None] = [None] * len(coerced)
        # content-addressed within the batch too: identical requests are
        # solved once, whether answered by the cache or freshly computed
        unique_misses: dict[str, int] = {}
        duplicate_of: dict[int, str] = {}
        for index, fingerprint in enumerate(fingerprints):
            cached = self._cache_get(fingerprint)
            if cached is not None:
                results[index] = cached
            elif fingerprint in unique_misses:
                duplicate_of[index] = fingerprint
            else:
                unique_misses[fingerprint] = index
        if unique_misses:
            misses = [coerced[i] for i in unique_misses.values()]
            solved = self._solve_misses_process(misses, workers)
            by_fingerprint = dict(zip(unique_misses, solved))
            for fingerprint, result in by_fingerprint.items():
                self._cache_put(fingerprint, result)
                self._record_trial(coerced[unique_misses[fingerprint]], result)
                results[unique_misses[fingerprint]] = result
            for index, fingerprint in duplicate_of.items():
                results[index] = replace(by_fingerprint[fingerprint], cache_hit=True)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def _solve_misses_process(
        self, misses: list[ScheduleRequest], workers: int | None
    ) -> list[ScheduleResult]:
        """Pool-solve the cache misses with DAG-sharing (see :meth:`solve_many`).

        In-memory/inline DAGs are deduplicated into a ``{fingerprint: dag}``
        table that rides the pool initializer (once per worker); the
        per-task requests carry only a :class:`_SharedDag` placeholder.
        File-reference requests stay references — each worker reads the
        file itself.  Returned dag_ref payloads are re-embedded here, so
        callers observe the same self-contained results a serial run
        produces.
        """
        shared: dict[str, object] = {}
        tasks: list[ScheduleRequest] = []
        for request in misses:
            if isinstance(request.dag, (str, Path)):
                tasks.append(request)
                continue
            dag = request.resolve_dag()
            ref = dag_fingerprint(dag)
            shared.setdefault(ref, dag)
            tasks.append(
                replace(
                    request,
                    dag=_SharedDag(ref),
                    _resolved_dag=None,
                    _fingerprint=request.fingerprint(),
                )
            )
        solved = parallel_map(_solve_task, shared, tasks, workers)
        embedded_dags: dict[str, dict] = {}
        for index, result in enumerate(solved):
            payload = result.schedule_dict()
            ref = payload.get("dag_ref")
            if ref is None or ref not in shared:
                continue
            if ref not in embedded_dags:
                embedded_dags[ref] = dag_to_dict(shared[ref])
            # rebuild in schedule_to_dict key order so the payload is
            # indistinguishable from a serially produced one
            restored = {"dag": embedded_dags[ref]}
            restored.update((k, v) for k, v in payload.items() if k != "dag_ref")
            solved[index] = replace(result, _schedule_dict=restored)
        return solved
