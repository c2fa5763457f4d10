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
* a crashed worker (:class:`BrokenProcessPool`) keeps every completed
  result and recomputes only the unfinished tasks serially,
* a genuine task error cancels the remaining tasks and propagates promptly
  — unless the caller opts into per-task error capture
  (``return_errors=True``), in which case each failed task yields a
  :class:`TaskError` in its result slot and the rest of the batch runs to
  completion (what the work-queue dispatcher needs: one poisoned request
  must not wedge a leased batch).

:func:`parallel_map` is the single implementation of that contract; the
``handler`` must be a module-level function (picklable by reference) taking
``(payload, task)``.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

__all__ = ["TaskError", "default_workers", "parallel_map"]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


@dataclass
class TaskError:
    """A captured per-task failure (``parallel_map(..., return_errors=True)``)."""

    error: Exception

    def __str__(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


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
    return_errors: bool = False,
) -> list[_Result]:
    """Apply ``handler(payload, task)`` to every task, optionally in parallel.

    ``workers=None`` reads the ``REPRO_WORKERS`` environment variable
    (default 1 = serial).  Results are returned in task order regardless of
    ``workers``; see the module docstring for the degradation contract.

    ``return_errors=True`` turns per-task exceptions (including a task that
    fails pickling) into :class:`TaskError` result entries instead of
    cancelling the batch; infrastructure failures (a broken pool) are still
    handled by the serial-recompute contract, not reported as task errors.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()

    def call(task: _Task) -> _Result:
        if not return_errors:
            return handler(payload, task)
        try:
            return handler(payload, task)
        except Exception as exc:
            return TaskError(exc)  # type: ignore[return-value]

    def serial(indices: Sequence[int] | None = None) -> list[_Result]:
        picked = range(len(tasks)) if indices is None else indices
        return [call(tasks[index]) for index in picked]

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
    try:
        futures = [pool.submit(_run_pool_task, task) for task in tasks]
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    results: list[_Result | None] = [None] * len(tasks)
    done = [False] * len(tasks)
    broken: BrokenProcessPool | None = None
    for index, future in enumerate(futures):
        try:
            results[index] = future.result()
            done[index] = True
        except BrokenProcessPool as exc:
            # crashed/killed worker: keep harvesting what did complete
            broken = exc
        except BaseException as exc:
            if return_errors and isinstance(exc, Exception):
                results[index] = TaskError(exc)
                done[index] = True
                continue
            # a genuine task error — including a task that fails pickling —
            # cancels the remaining tasks and propagates promptly instead of
            # sitting through the whole batch
            pool.shutdown(cancel_futures=True)
            raise
    pool.shutdown(cancel_futures=True)
    if broken is not None:
        # recompute only the tasks that never finished; completed parallel
        # results are kept rather than thrown away
        missing = [index for index, ok in enumerate(done) if not ok]
        warnings.warn(
            f"process pool failed ({broken!r}); recomputing "
            f"{len(missing)} unfinished task(s) serially",
            stacklevel=2,
        )
        for index, result in zip(missing, serial(missing)):
            results[index] = result
    return results  # type: ignore[return-value]
