"""Persistence spine of the scheduling service: store, queue, dispatcher.

Everything durable lives in one directory tree (the *store root*), shared
freely between processes, machines with a common filesystem, and CI runs:

* :class:`ResultStore` — content-addressed results: one JSON file per
  solved request fingerprint under ``results/``, with DAG payloads
  deduplicated into ``dags/`` (results carry ``dag_ref``\\ s, so a grid
  over a handful of instances stores each DAG once).  Plugged in behind
  :class:`repro.api.SchedulingService`'s in-memory LRU via the ``store=``
  parameter, it makes every solve persistent and every re-run a cache hit.
* :class:`WorkQueue` — a crash-safe, file-backed queue of pending request
  fingerprints under ``queue/`` with lease / renew / expire semantics:
  atomic rename claims, abandoned leases retried, terminal failures
  recorded instead of wedging the batch.
* :class:`Dispatcher` — leases batches to a worker fleet (a process pool
  via :func:`repro.core.parallel.parallel_map`); workers
  persist results *before* queue entries are completed, so worker death
  anywhere loses nothing, and renew their leases mid-solve via
  :class:`LeaseHeartbeat`, so long solves by healthy workers are never
  expired and duplicated.  ``repro serve-worker`` wraps
  :meth:`Dispatcher.drain`; ``ResultStore.gc`` sweeps dangling results,
  orphaned DAG payloads and stale write temporaries.

Resume is a consequence rather than a feature: the experiment drivers in
:mod:`repro.analysis.experiments` build content-addressed request batches,
so re-running a grid against a warm store performs zero scheduler
invocations and reproduces the tables byte-for-byte.
"""

from .dispatcher import DispatchReport, Dispatcher
from .heartbeat import LeaseHeartbeat
from .queue import LeasedTask, WorkQueue
from .results import ResultStore, dag_dict_fingerprint
from .trials import ExperimentRecord, TrialLog, TrialRecord, dag_family

__all__ = [
    "DispatchReport",
    "Dispatcher",
    "ExperimentRecord",
    "LeaseHeartbeat",
    "LeasedTask",
    "ResultStore",
    "TrialLog",
    "TrialRecord",
    "WorkQueue",
    "dag_dict_fingerprint",
    "dag_family",
]
