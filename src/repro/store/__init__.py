"""Persistence spine of the scheduling service: the result store.

Everything durable lives in one directory tree (the *store root*), shared
freely between processes on one host and between CI runs:

* :class:`ResultStore` — content-addressed results: one JSON file per
  solved request fingerprint under ``results/``, with DAG payloads
  deduplicated into ``dags/`` (results carry ``dag_ref``\\ s, so a grid
  over a handful of instances stores each DAG once).  Plugged in behind
  :class:`repro.api.SchedulingService`'s in-memory LRU via the ``store=``
  parameter, it makes every solve persistent and every re-run a cache hit.
  ``ResultStore.gc`` sweeps dangling results, orphaned DAG payloads and
  stale write temporaries.
* :class:`TrialLog` — the append-only trial metadata table next to
  ``results/`` that the report subsystem aggregates.

Resume is a consequence rather than a feature: the experiment drivers in
:mod:`repro.analysis.experiments` build content-addressed request batches
(``run_grid(..., workers=N)``), so re-running a grid against a warm store
performs zero scheduler invocations and reproduces the tables
byte-for-byte.
"""

from .results import ResultStore, dag_dict_fingerprint
from .trials import TrialLog, TrialRecord, dag_family

__all__ = [
    "ResultStore",
    "TrialLog",
    "TrialRecord",
    "dag_dict_fingerprint",
    "dag_family",
]
