"""Content-addressed on-disk result store.

The store is a plain directory tree shared by every process that points at
it (CLI runs, experiment harnesses and their process pools, CI jobs)::

    <root>/
      results/<request-fingerprint>.json   one ScheduleResult per solved request
      dags/<dag-fingerprint>.json          deduplicated DAG payloads (dag_to_dict)
      trials.jsonl                         trial metadata (trials.py)

* **Content-addressed**: a result file is named by the fingerprint of the
  :class:`~repro.api.ScheduleRequest` that produced it (DAG content +
  machine + spec + budget + seed), so any process that can rebuild the
  request can look its answer up — no coordination, no index.
* **Small payloads**: the schedule's instance is factored out on write —
  the DAG payload is stored once under ``dags/`` and the result file holds
  a ``dag_ref`` (the :ref:`dag_ref mode <ScheduleResult>` of the wire
  format).  A grid of thousands of requests over a handful of DAGs stores
  each DAG once.
* **Crash-safe**: writes are atomic (tmp + rename — see
  :mod:`repro.store.fsio`), concurrent writers of the same fingerprint are
  idempotent (content-addressing makes the race benign), and corrupt or
  truncated files read as *missing* and are overwritten by the next
  recompute instead of wedging the store.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..api.result import ScheduleResult
from ..core.exceptions import ReproError
from .fsio import atomic_write_json, read_json_tolerant

if TYPE_CHECKING:
    from .trials import TrialLog

__all__ = ["ResultStore", "dag_dict_fingerprint"]


def dag_dict_fingerprint(dag_dict: dict) -> str:
    """Stable content hash of a DAG wire dict (the ``dags/`` file name).

    Hashes the canonical JSON rendering of the :func:`dag_to_dict` payload,
    so the same DAG content produces the same reference whether it arrives
    as a live object or as an already-serialised dict.
    """
    canonical = json.dumps(dag_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(b"repro-dagdict-v1" + canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory-backed, content-addressed map ``request fingerprint -> result``.

    Parameters
    ----------
    root:
        The store root directory (created on first write).  Several
        processes may share one root concurrently; all operations are
        atomic at the single-entry level.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.dags_dir = self.root / "dags"
        self._trials: "TrialLog | None" = None

    @property
    def trials(self) -> "TrialLog":
        """The trial metadata table living next to ``results/``.

        See :mod:`repro.store.trials`: append-only JSONL records describing
        every actual scheduler invocation against this store — the layer
        the report subsystem aggregates instead of opening raw result
        payloads.
        """
        if self._trials is None:
            from .trials import TrialLog

            self._trials = TrialLog(self.root)
        return self._trials

    # ------------------------------------------------------------------ #
    # result entries
    # ------------------------------------------------------------------ #
    def result_path(self, fingerprint: str) -> Path:
        """The on-disk location of one result entry."""
        return self.results_dir / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> ScheduleResult | None:
        """The stored result, or ``None`` (missing *or* unreadable/corrupt).

        The returned result resolves its ``dag_ref`` lazily against this
        store's ``dags/`` directory; costs, stage traces and metadata are
        available without touching the DAG payload at all.
        """
        payload = read_json_tolerant(self.result_path(fingerprint))
        if not isinstance(payload, dict):
            return None
        try:
            return ScheduleResult.from_dict(payload, dag_resolver=self.load_dag_dict)
        except ReproError:
            # structurally broken entry (e.g. a partial write predating the
            # atomic-rename discipline): treat as missing, let the caller
            # recompute and overwrite
            return None

    def contains(self, fingerprint: str) -> bool:
        """Whether a *readable* result is stored for ``fingerprint``."""
        return self.get(fingerprint) is not None

    def put(self, fingerprint: str, result: ScheduleResult) -> bool:
        """Store a result under ``fingerprint``; ``False`` if already present.

        The DAG payload is factored out into ``dags/`` (written once per
        distinct DAG) and the result file keeps only a ``dag_ref``.  An
        existing *readable* entry is kept untouched — content-addressing
        makes re-putting the same fingerprint idempotent — while a corrupt
        one is overwritten.
        """
        if self.contains(fingerprint):
            return False
        data = result.to_dict()
        schedule = dict(data["schedule"])
        dag_dict = schedule.pop("dag")
        ref = dag_dict_fingerprint(dag_dict)
        dag_path = self.dags_dir / f"{ref}.json"
        if not dag_path.exists():
            atomic_write_json(dag_path, dag_dict)
        schedule["dag_ref"] = ref
        data["schedule"] = schedule
        # volatile per-run flags are not part of the stored answer
        data["cache_hit"] = False
        atomic_write_json(self.result_path(fingerprint), data)
        return True

    def fingerprints(self) -> list[str]:
        """Every stored fingerprint (sorted; readability not verified)."""
        if not self.results_dir.is_dir():
            return []
        return sorted(path.stem for path in self.results_dir.glob("*.json"))

    def __len__(self) -> int:
        return len(self.fingerprints())

    # ------------------------------------------------------------------ #
    # DAG payloads
    # ------------------------------------------------------------------ #
    def dag_path(self, ref: str) -> Path:
        """The on-disk location of one DAG payload."""
        return self.dags_dir / f"{ref}.json"

    def load_dag_dict(self, ref: str) -> dict:
        """Resolve a ``dag_ref`` to its stored wire dict (raises if absent)."""
        payload = read_json_tolerant(self.dag_path(ref))
        if not isinstance(payload, dict):
            raise ReproError(
                f"dag_ref {ref!r} does not resolve to a readable DAG payload "
                f"under {self.dags_dir}"
            )
        return payload

    # ------------------------------------------------------------------ #
    # garbage collection
    # ------------------------------------------------------------------ #
    def gc(
        self,
        *,
        tmp_grace_seconds: float = 3600.0,
        prune_trials: bool = False,
        clock: Callable[[], float] | None = None,
    ) -> dict[str, Any]:
        """Collect store garbage; returns what was removed, by category.

        Three kinds of debris accumulate in a long-lived store and nothing
        in the normal write path ever removes them:

        * **dangling results** — result entries whose ``dag_ref`` no longer
          resolves to a readable ``dags/`` payload (e.g. a payload deleted
          by hand, or a partial copy of a store).  Such an entry can never
          reproduce its schedule, so it is dropped and the next solve
          recomputes it;
        * **orphaned DAG payloads** — ``dags/`` entries referenced by no
          result (e.g. left behind when their results were gc'd);
        * **stale temporaries** — ``.{name}.{uuid}.tmp`` siblings orphaned
          by writers that died between creating the temporary and the
          atomic rename (see :mod:`repro.store.fsio`).  Only temporaries
          older than ``tmp_grace_seconds`` are touched, so in-flight writes
          of live processes are never raced.

        The trial metadata table (``trials.jsonl``, see
        :mod:`repro.store.trials`) is **never touched by default** — it is
        the history of what was computed, which outlives the payloads.
        With ``prune_trials=True`` it is compacted instead: trial records
        whose result entry no longer exists after this sweep are dropped,
        so the table never points at results the store cannot answer.
        Records of *surviving* results are always kept — gc never orphans a
        record from its result in either direction.

        The clock is injectable (epoch seconds, default :func:`time.time`)
        for deterministic grace-period tests.  Results with inline DAGs and
        corrupt-but-present entries (``put`` overwrites those) are never
        removed.
        """
        now = float((clock if clock is not None else time.time)())
        removed_results: list[str] = []
        referenced: set[str] = set()
        for fingerprint in self.fingerprints():
            payload = read_json_tolerant(self.result_path(fingerprint))
            schedule = payload.get("schedule") if isinstance(payload, dict) else None
            ref = schedule.get("dag_ref") if isinstance(schedule, dict) else None
            if ref is None:
                continue  # inline DAG or unreadable entry: nothing to resolve
            if self.dag_path(str(ref)).is_file():
                referenced.add(str(ref))
                continue
            try:
                self.result_path(fingerprint).unlink()
            except OSError:
                continue
            removed_results.append(fingerprint)
        removed_dags: list[str] = []
        if self.dags_dir.is_dir():
            for path in sorted(self.dags_dir.glob("*.json")):
                if path.stem in referenced:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                removed_dags.append(path.stem)
        dropped_trials = 0
        if prune_trials:
            # only now, after the dangling-result sweep, does "stored"
            # mean "answerable": compact the metadata table against the
            # surviving result set so no record points at a missing result
            dropped_trials = self.trials.compact(
                lambda fingerprint: self.result_path(fingerprint).is_file()
            )
        removed_tmp: list[str] = []
        if self.root.is_dir():
            for path in sorted(self.root.rglob(".*.tmp")):
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age < float(tmp_grace_seconds):
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                removed_tmp.append(str(path.relative_to(self.root)))
        return {
            "removed_results": removed_results,
            "removed_dags": removed_dags,
            "removed_tmp": removed_tmp,
            "dropped_trials": dropped_trials,
        }

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Entry counts (results, deduplicated DAG payloads, trial records)."""
        num_dags = (
            len(list(self.dags_dir.glob("*.json"))) if self.dags_dir.is_dir() else 0
        )
        return {"results": len(self), "dags": num_dags, "trials": len(self.trials)}
