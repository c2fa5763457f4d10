"""Dispatcher: leases queued requests to a worker fleet, persists results.

The dispatcher closes the loop between the durable queue and the result
store.  One :meth:`Dispatcher.run_once` cycle:

1. **expire** — return leases abandoned by dead workers to the pending
   set (or record a terminal failure once the attempt budget is spent);
2. **lease** — claim a batch of pending entries for this dispatcher;
3. **skip** — entries whose fingerprint is already in the store (e.g. a
   worker that died *after* persisting but *before* completing) are
   completed immediately, without recomputation;
4. **solve** — the remainder fan out over :func:`repro.core.parallel
   .parallel_map` over a process pool; each pool worker runs a
   store-backed :class:`~repro.api.SchedulingService`, so results are
   persisted *in the worker*, before the queue entry is touched, and a
   :class:`~repro.store.heartbeat.LeaseHeartbeat` renews the entry's
   lease while the solve runs, so long solves by healthy workers are not
   expired and duplicated;
5. **settle** — solved entries are completed, genuine task errors are
   recorded terminally (the rest of the batch is unaffected).

Because step 4 persists before step 5 completes, a crash anywhere in the
cycle loses no results: the entry is either still pending, or leased (and
will expire back to pending), or its result is already content-addressed
in the store — in which case the next cycle's step 3 completes it without
recompute.  Duplicated work is likewise benign: identical fingerprints
write identical files.

:meth:`Dispatcher.drain` loops ``run_once`` until the queue is empty —
the ``repro serve-worker`` CLI is a thin wrapper around it.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..core.parallel import TaskError, parallel_map
from .queue import WorkQueue
from .results import ResultStore

__all__ = ["DispatchReport", "Dispatcher"]


#: per-process store-backed services, keyed by store root — one pool worker
#: serves many tasks and must not rebuild the service (or its store handle)
#: per task
_WORKER_SERVICES: dict = {}


def _worker_service(store_root: str):
    from ..api.service import SchedulingService

    service = _WORKER_SERVICES.get(store_root)
    if service is None:
        service = SchedulingService(cache_size=8, store=store_root)
        _WORKER_SERVICES[store_root] = service
    return service


def _dispatch_task(payload: dict, task: tuple[str, dict]) -> tuple[str, str | None]:
    """Module-level pool handler: solve one queued request into the store.

    ``payload`` carries the store root plus the dispatcher's lease identity
    (owner, lease duration); ``task`` is ``(queue fingerprint, request wire
    dict)``.  Returns ``(fingerprint, error)`` — ``error`` is ``None`` on
    success.  Exceptions are captured here (not propagated) so one poisoned
    request cannot cancel the rest of the batch.

    While the solve runs, a :class:`~repro.store.heartbeat.LeaseHeartbeat`
    renews the entry's lease in the background, so a solve longer than one
    lease period is not requeued under a perfectly healthy worker.
    """
    from ..api.request import ScheduleRequest
    from .heartbeat import LeaseHeartbeat

    store_root = str(payload["root"])
    queue_fingerprint, request_dict = task
    service = _worker_service(store_root)
    try:
        request = ScheduleRequest.from_dict(request_dict)
        fingerprint = request.fingerprint()
    except Exception as exc:  # malformed request: terminal, nothing to retry
        return (queue_fingerprint, f"{type(exc).__name__}: {exc}")
    heartbeat = LeaseHeartbeat(
        WorkQueue(store_root),
        queue_fingerprint,
        str(payload["owner"]),
        lease_seconds=float(payload["lease_seconds"]),
    )
    try:
        with heartbeat:
            service.solve(request)  # store-backed: persists before returning
        return (fingerprint, None)
    except Exception as exc:
        return (fingerprint, f"{type(exc).__name__}: {exc}")


@dataclass
class DispatchReport:
    """What a dispatch run did (cumulative over ``run_once`` cycles)."""

    completed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    requeued: list[str] = field(default_factory=list)
    batches: int = 0

    def merge(self, other: "DispatchReport") -> None:
        self.completed.extend(other.completed)
        self.skipped.extend(other.skipped)
        self.failed.update(other.failed)
        self.requeued.extend(other.requeued)
        self.batches += other.batches

    @property
    def progressed(self) -> bool:
        return bool(self.completed or self.skipped or self.failed or self.requeued)


class Dispatcher:
    """Leases queue entries to a worker fleet and settles their outcomes.

    Parameters
    ----------
    root:
        Store root (results, DAG payloads and the queue all live under it).
    workers:
        Process-pool width, passed to
        :func:`repro.core.parallel.parallel_map` (``None`` reads
        ``REPRO_WORKERS``).
    lease_seconds:
        Lease duration per claimed batch; a worker dead longer than this
        has its entries requeued by the next cycle (any dispatcher's).
    max_attempts:
        Lease attempts before an entry fails terminally instead of
        bouncing forever.
    batch_size:
        Maximum entries claimed per cycle (``None``: 4 x the worker count).
    clock:
        Injectable time source forwarded to the queue (tests simulate
        worker death by advancing it).
    """

    def __init__(
        self,
        root: str | Path,
        workers: int | None = None,
        lease_seconds: float = 300.0,
        max_attempts: int = 3,
        batch_size: int | None = None,
        owner: str | None = None,
        clock=None,
    ) -> None:
        self.store = ResultStore(root)
        self.queue = WorkQueue(root, clock=clock)
        self.workers = workers
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.batch_size = batch_size
        self.owner = owner or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )

    # ------------------------------------------------------------------ #
    def run_once(self, limit: int | None = None) -> DispatchReport:
        """One expire / lease / solve / settle cycle (see module docstring)."""
        report = DispatchReport(batches=1)
        requeued, expired = self.queue.expire_leases(
            max_attempts=self.max_attempts, lease_seconds=self.lease_seconds
        )
        report.requeued.extend(requeued)
        for fingerprint in expired:
            report.failed[fingerprint] = self.queue.failures().get(
                fingerprint, "lease expired"
            )
        if limit is None:
            limit = self.batch_size
        tasks = self.queue.lease(
            self.owner, limit=limit, lease_seconds=self.lease_seconds
        )
        ready = []
        for task in tasks:
            if self.store.contains(task.fingerprint):
                # a dead worker got as far as persisting: finish its entry
                self.queue.complete(task.fingerprint)
                report.skipped.append(task.fingerprint)
            else:
                ready.append(task)
        if not ready:
            return report
        outcomes = parallel_map(
            _dispatch_task,
            {
                "root": str(self.store.root),
                "owner": self.owner,
                "lease_seconds": self.lease_seconds,
            },
            [(task.fingerprint, task.request) for task in ready],
            self.workers,
            return_errors=True,
        )
        for task, outcome in zip(ready, outcomes):
            if isinstance(outcome, TaskError):
                error: str | None = str(outcome)
            else:
                _, error = outcome
            if error is None and not self.store.contains(task.fingerprint):
                error = "worker reported success but the result is not in the store"
            if error is None:
                self.queue.complete(task.fingerprint)
                report.completed.append(task.fingerprint)
            else:
                self.queue.fail(task.fingerprint, error)
                report.failed[task.fingerprint] = error
        return report

    def drain(
        self, poll_seconds: float = 1.0, max_batches: int | None = None
    ) -> DispatchReport:
        """Run cycles until the queue is empty (or ``max_batches`` is hit).

        Entries leased by *other* (live) workers are waited out with a
        ``poll_seconds`` sleep between idle cycles; entries of dead workers
        come back via lease expiry and are picked up here.
        """
        total = DispatchReport()
        while max_batches is None or total.batches < max_batches:
            report = self.run_once()
            total.merge(report)
            stats = self.queue.stats()
            if stats["pending"] == 0 and stats["leased"] == 0:
                break
            if not report.progressed:
                time.sleep(poll_seconds)
        return total
