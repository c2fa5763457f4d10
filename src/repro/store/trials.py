"""Trial metadata records: the trial table layer of the store.

The raw :class:`~repro.store.results.ResultStore` is a content-addressed
map ``request fingerprint -> ScheduleResult`` — perfect for resume, useless
for review: a fingerprint says nothing about *what* was solved.  This
module adds the fuzzbench-style metadata table on top:

* :class:`TrialRecord` — one row per **actual scheduler invocation**:
  the request fingerprint plus everything a report needs to aggregate
  without opening result payloads — scheduler name, instance family and
  size, machine point, budget, seed, cost breakdown and wall-clock
  timings.  Emitted by :class:`~repro.api.SchedulingService` whenever a
  store-backed solve misses every cache tier (so ``solve`` calls and
  ``solve_many`` grids populate the table as a side effect of computing).
* :class:`TrialLog` — the storage layer: one **append-only JSONL** file
  next to ``results/`` (``trials.jsonl``).  Appends are single
  ``O_APPEND`` writes of one newline-terminated line, so concurrent
  writers interleave whole records rather than bytes; readers skip
  unparseable lines (a torn write costs one record, never the table).
  :meth:`TrialLog.compact` rewrites the file atomically —
  used by :meth:`ResultStore.gc(prune_trials=True)
  <repro.store.results.ResultStore.gc>` to drop records whose results
  were collected.

Records are deliberately denormalised (the family and node count are
copied out of the DAG): the report must render from the JSONL alone,
without touching — or even having — the DAG payloads.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # circular: api imports the store package lazily
    from ..api.request import ScheduleRequest
    from ..api.result import ScheduleResult

__all__ = ["TrialLog", "TrialRecord", "dag_family"]


def dag_family(dag_name: str) -> str:
    """The instance family of a DAG name (its leading underscore segment).

    Generator names are of the form ``spmv_n100_d30_s7`` / ``cholesky_...``
    — the segment before the first underscore is the family every
    aggregation groups by.  Unnamed DAGs fall into ``"unnamed"``.
    """
    head = str(dag_name).split("_", 1)[0]
    return head or "unnamed"


@dataclass
class TrialRecord:
    """One scheduler invocation, described well enough to aggregate.

    ``timings`` and ``created_at`` are volatile (wall-clock) metadata:
    they make two otherwise-identical trials differ, so deterministic
    consumers (the byte-stable HTML report) must not render them raw.
    Everything else is a pure function of the request and its result.
    """

    fingerprint: str
    scheduler: str
    family: str
    dag_name: str
    dag_fingerprint: str
    num_nodes: int
    num_edges: int
    machine: dict
    budget: dict | None
    seed: int
    cost: float
    breakdown: dict[str, float]
    num_supersteps: int
    timings: dict[str, float] = field(default_factory=dict)
    created_at: float = 0.0

    @classmethod
    def from_solve(
        cls,
        request: "ScheduleRequest",
        result: "ScheduleResult",
        clock: Callable[[], float] | None = None,
    ) -> "TrialRecord":
        """Describe one completed solve (request context + result numbers).

        The request's DAG is already resolved and fingerprinted by the
        solve itself, so this only reads memoized state — no file or
        payload is touched again.
        """
        from ..api.request import dag_fingerprint

        dag = request.resolve_dag()
        return cls(
            fingerprint=request.fingerprint(),
            scheduler=request.scheduler.name,
            family=dag_family(dag.name),
            dag_name=str(dag.name),
            dag_fingerprint=dag_fingerprint(dag),
            num_nodes=int(dag.num_nodes),
            num_edges=int(dag.num_edges),
            machine=request._machine_dict(),
            budget=None if request.budget is None else request.budget.to_dict(),
            seed=int(request.seed),
            cost=float(result.cost),
            breakdown={k: float(v) for k, v in result.breakdown.items()},
            num_supersteps=int(result.num_supersteps),
            timings={k: float(v) for k, v in result.timings.items()},
            created_at=float((clock or time.time)()),
        )

    # ------------------------------------------------------------------ #
    def group_key(self) -> tuple:
        """The comparison-group identity: same problem, different scheduler.

        Two trials with equal group keys solved the *same* instance on the
        same machine under the same budget and seed — exactly the blocks
        the rank tables compare schedulers within.
        """
        return (
            self.dag_fingerprint,
            json.dumps(self.machine, sort_keys=True),
            json.dumps(self.budget, sort_keys=True),
            self.seed,
        )

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "trial",
            "fingerprint": self.fingerprint,
            "scheduler": self.scheduler,
            "family": self.family,
            "dag_name": self.dag_name,
            "dag_fingerprint": self.dag_fingerprint,
            "num_nodes": int(self.num_nodes),
            "num_edges": int(self.num_edges),
            "machine": self.machine,
            "budget": self.budget,
            "seed": int(self.seed),
            "cost": float(self.cost),
            "breakdown": {k: float(v) for k, v in self.breakdown.items()},
            "num_supersteps": int(self.num_supersteps),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "created_at": float(self.created_at),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialRecord":
        return cls(
            fingerprint=str(data["fingerprint"]),
            scheduler=str(data["scheduler"]),
            family=str(data["family"]),
            dag_name=str(data.get("dag_name", "")),
            dag_fingerprint=str(data.get("dag_fingerprint", "")),
            num_nodes=int(data.get("num_nodes", 0)),
            num_edges=int(data.get("num_edges", 0)),
            machine=dict(data.get("machine", {})),
            budget=data.get("budget"),
            seed=int(data.get("seed", 0)),
            cost=float(data["cost"]),
            breakdown={
                str(k): float(v) for k, v in data.get("breakdown", {}).items()
            },
            num_supersteps=int(data.get("num_supersteps", 0)),
            timings={str(k): float(v) for k, v in data.get("timings", {}).items()},
            created_at=float(data.get("created_at", 0.0)),
        )


class TrialLog:
    """The append-only JSONL trial table under a store root (crash- and race-safe).

    One record per line.  Appends open with ``O_APPEND`` and write the
    whole line in a single call, so concurrent appenders (several
    processes sharing one store) interleave records, not bytes; a torn
    line from a dying writer is skipped on read.  The file is *data*,
    shared with the store's other artifacts: :meth:`compact` is the only
    operation that rewrites it, and it publishes atomically (tmp sibling
    + rename).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.trials_path = self.root / "trials.jsonl"

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def append_trial(self, record: TrialRecord) -> None:
        """Append one trial record (one atomic line write)."""
        line = json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.trials_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def trials(self) -> list[TrialRecord]:
        """Every readable trial record, in append (chronological) order."""
        try:
            text = self.trials_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return []
        records: list[TrialRecord] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # torn write from a dying appender: skip the line
            if not isinstance(payload, dict):
                continue
            try:
                records.append(TrialRecord.from_dict(payload))
            except (KeyError, TypeError, ValueError):
                continue
        return records

    def __len__(self) -> int:
        return len(self.trials())

    # ------------------------------------------------------------------ #
    # compaction (the gc hook)
    # ------------------------------------------------------------------ #
    def compact(self, keep: Callable[[str], bool]) -> int:
        """Rewrite the table keeping only records whose result survives.

        ``keep(fingerprint)`` decides trial survival.  Duplicate trial rows
        for one fingerprint (two processes that solved the same request
        concurrently) are collapsed to the most recent.  The file is
        republished atomically.  Returns the number of rows dropped.
        """
        from .fsio import atomic_write_text

        latest: dict[str, TrialRecord] = {}
        total = 0
        for record in self.trials():
            total += 1
            latest[record.fingerprint] = record
        kept = [record for record in latest.values() if keep(record.fingerprint)]
        kept.sort(key=lambda record: (record.created_at, record.fingerprint))
        if self.trials_path.exists() or kept:
            atomic_write_text(
                self.trials_path,
                "".join(
                    json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
                    + "\n"
                    for r in kept
                ),
            )
        return total - len(kept)
