"""Deterministic process-pool fan-out shared by the batched entry points.

Both the experiment grid (:func:`repro.analysis.experiments.run_grid`) and
the scheduling service (:meth:`repro.api.SchedulingService.solve_many`)
distribute independent tasks over a process pool with the same guarantees:

* results always come back in the deterministic serial task order,
* the shared payload (runner / service configuration) crosses the worker
  pipe once per worker (pool initializer), not once per task,
* an unusable pool (no ``fork``/``spawn``, unpicklable payload, sandboxed
  interpreter) degrades to serial execution with a warning instead of
  failing,
* a crashed worker (``BrokenProcessPool``) keeps every completed result
  and recomputes only the unfinished tasks serially,
* a genuine task error cancels the remaining tasks and propagates
  promptly,
* an ``on_result`` callback sees each result as it is harvested, in task
  order on every path, so a caller can persist results before the batch
  ends.

:func:`parallel_map` is the single implementation of that contract; the
``handler`` must be a module-level function (picklable by reference) taking
``(payload, task)``.  The process-pool machinery is imported only when a
pool is actually started.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Callable, Sequence, TypeVar

__all__ = ["default_workers", "parallel_map"]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def default_workers() -> int:
    """Worker count from the ``REPRO_WORKERS`` environment knob (default 1)."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        return max(int(raw), 1)
    except ValueError:
        warnings.warn(f"ignoring non-integer REPRO_WORKERS={raw!r}", stacklevel=2)
        return 1


#: per-worker state installed by the pool initializer, so the (potentially
#: heavy) shared payload is pickled once per worker, not per task
_WORKER_HANDLER: Callable | None = None
_WORKER_PAYLOAD = None


def _init_pool_worker(handler: Callable, payload) -> None:
    global _WORKER_HANDLER, _WORKER_PAYLOAD
    _WORKER_HANDLER = handler
    _WORKER_PAYLOAD = payload


def _run_pool_task(task):
    """Module-level trampoline so tasks are picklable for the pool."""
    assert _WORKER_HANDLER is not None
    return _WORKER_HANDLER(_WORKER_PAYLOAD, task)


def parallel_map(
    handler: Callable[..., _Result],
    payload,
    tasks: Sequence[_Task],
    workers: int | None = None,
    on_result: Callable[[int, _Result], None] | None = None,
) -> list[_Result]:
    """Apply ``handler(payload, task)`` to every task, optionally in parallel.

    ``workers=None`` reads the ``REPRO_WORKERS`` environment variable
    (default 1 = serial).  Results are returned in task order regardless of
    ``workers``, and ``on_result(index, result)`` is called for each one in
    that same order as soon as it is available; see the module docstring
    for the degradation contract.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    results: list[_Result] = []

    def keep(result: _Result) -> None:
        if on_result is not None:
            on_result(len(results), result)
        results.append(result)

    def serial() -> list[_Result]:
        for task in tasks:
            keep(handler(payload, task))
        return results

    if workers <= 1 or len(tasks) <= 1:
        return serial()

    # pre-flight: prove the shared payload can cross a process boundary
    # (pickle signals this with TypeError/AttributeError/ValueError as often
    # as with PicklingError).  Only the small shared payload is probed —
    # serialising the full task list here would double the pickling work;
    # an unpicklable individual task instead fails fast below.
    try:
        pickle.dumps((handler, payload))
    except (pickle.PicklingError, TypeError, AttributeError, ValueError) as exc:
        warnings.warn(
            f"pool payload is not picklable ({exc!r}); running serially",
            stacklevel=2,
        )
        return serial()

    try:
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_init_pool_worker,
            initargs=(handler, payload),
        )
    except (OSError, ImportError, NotImplementedError) as exc:
        warnings.warn(
            f"process pool unavailable ({exc!r}); running serially",
            stacklevel=2,
        )
        return serial()
    # a genuine task error (including a task that fails pickling) or an
    # error raised by on_result cancels the remaining tasks and propagates
    # promptly instead of sitting through the whole batch
    try:
        futures = [pool.submit(_run_pool_task, task) for task in tasks]
        broken = False
        for task, future in zip(tasks, futures):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                # a crashed or killed worker fails every unfinished task;
                # the completed results are kept, and each unfinished task
                # is recomputed here in its turn, so order never changes
                if not broken:
                    warnings.warn(
                        f"process pool failed ({exc!r}); recomputing the "
                        f"unfinished tasks serially",
                        stacklevel=2,
                    )
                    broken = True
                result = handler(payload, task)
            keep(result)
    finally:
        pool.shutdown(cancel_futures=True)
    return results
