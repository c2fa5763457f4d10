"""The serializable scheduling result: schedule + costs + provenance.

A :class:`ScheduleResult` is the wire-format answer to one
:class:`~repro.api.ScheduleRequest`:

* the schedule itself (the :func:`~repro.core.serialization.schedule_to_dict`
  payload, self-contained with its instance);
* the exact cost and its work/comm/latency breakdown;
* the per-stage cost trace when the scheduler was a pipeline;
* provenance — the request fingerprint and scheduler name, so a result can
  be matched back to (and replayed from) the request that produced it;
* volatile run metadata — wall-clock timings and the cache-hit flag.

``to_dict``/``from_dict`` round-trip losslessly.  :meth:`canonical_dict`
strips the volatile metadata; it is the payload two runs of the same
deterministic-budget request must agree on bit-for-bit (what the
``solve_many`` parallel == serial guarantee and the content-addressed cache
compare).

dag_ref mode
------------
The schedule payload normally embeds its whole instance
(:func:`~repro.core.serialization.schedule_to_dict`).  When DAGs live in
shared storage — the content-addressed store's ``dags/`` directory — a
result's schedule payload can instead carry a **reference**: a
``"dag_ref"`` string in place of the embedded ``"dag"`` sub-dict.  A *dag
resolver* (a callable ``ref -> dag wire dict``, e.g.
:meth:`repro.store.ResultStore.load_dag_dict`) passed to :meth:`from_dict`
makes the round trip lossless: :meth:`to_dict`, :meth:`canonical_dict` and
:meth:`to_schedule` all resolve the reference transparently, so a
store-loaded result is bit-identical to a freshly computed one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from ..core.exceptions import ReproError
from ..core.schedule import BspSchedule
from ..core.serialization import schedule_from_dict, schedule_to_dict
from ..core.wire import as_mapping
from ..schedulers.pipeline import StageCosts

__all__ = ["ScheduleResult"]


@dataclass
class ScheduleResult:
    """The outcome of one service solve (serializable, self-contained)."""

    scheduler: str
    fingerprint: str
    cost: float
    breakdown: dict[str, float]
    num_supersteps: int
    stages: StageCosts | None = None
    timings: dict[str, float] = field(default_factory=dict)
    cache_hit: bool = False
    _schedule_dict: dict | None = field(default=None, repr=False)
    _schedule: BspSchedule | None = field(default=None, repr=False, compare=False)
    _dag_resolver: Callable[[str], dict] | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_schedule(
        cls,
        schedule: BspSchedule,
        *,
        scheduler: str,
        fingerprint: str,
        stages: StageCosts | None = None,
        timings: dict[str, float] | None = None,
    ) -> "ScheduleResult":
        """Build a result from an in-memory schedule (serialisation is lazy)."""
        breakdown = schedule.cost_breakdown()
        return cls(
            scheduler=scheduler,
            fingerprint=fingerprint,
            cost=float(breakdown.total),
            breakdown={
                "total": float(breakdown.total),
                "work": float(breakdown.work),
                "comm": float(breakdown.comm),
                "latency": float(breakdown.latency),
            },
            num_supersteps=int(schedule.num_supersteps),
            stages=stages,
            timings=dict(timings or {}),
            _schedule=schedule,
        )

    # ------------------------------------------------------------------ #
    def schedule_dict(self) -> dict:
        """The schedule's wire payload (serialised once, then memoized)."""
        if self._schedule_dict is None:
            if self._schedule is None:
                raise ReproError("result carries neither a schedule nor its dict")
            self._schedule_dict = schedule_to_dict(self._schedule)
        return self._schedule_dict

    def to_schedule(self) -> BspSchedule:
        """The materialised (re-validated) :class:`BspSchedule`."""
        if self._schedule is None:
            self._schedule = schedule_from_dict(
                self.schedule_dict(), dag_resolver=self._dag_resolver
            )
        return self._schedule

    # ------------------------------------------------------------------ #
    def embedded_schedule_dict(self) -> dict:
        """The schedule payload with its DAG embedded (refs resolved)."""
        payload = self.schedule_dict()
        if "dag" in payload:
            return payload
        ref = payload.get("dag_ref")
        if ref is None:
            raise ReproError("schedule payload carries neither a DAG nor a dag_ref")
        if self._dag_resolver is None:
            raise ReproError(
                f"schedule payload references DAG {ref!r} but no resolver is "
                "attached; load the result through its store"
            )
        embedded = {k: v for k, v in payload.items() if k != "dag_ref"}
        embedded["dag"] = self._dag_resolver(str(ref))
        # memoize: the resolved payload *is* the schedule payload from now
        # on, so repeated to_dict()/canonical_dict() calls resolve once
        self._schedule_dict = embedded
        return embedded

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-compatible, self-contained wire form (inverse of :meth:`from_dict`).

        A ``dag_ref`` payload is resolved (embedded) here, so the emitted
        dict never depends on an external store being reachable later.
        """
        return {
            "schema": 1,
            "scheduler": self.scheduler,
            "fingerprint": self.fingerprint,
            "cost": float(self.cost),
            "breakdown": {k: float(v) for k, v in self.breakdown.items()},
            "num_supersteps": int(self.num_supersteps),
            "schedule": self.embedded_schedule_dict(),
            "stages": None if self.stages is None else self.stages.to_dict(),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "cache_hit": bool(self.cache_hit),
        }

    def canonical_dict(self) -> dict:
        """The deterministic payload: :meth:`to_dict` minus volatile metadata."""
        data = self.to_dict()
        del data["timings"]
        del data["cache_hit"]
        return data

    @classmethod
    def from_dict(
        cls, data: dict, dag_resolver: Callable[[str], dict] | None = None
    ) -> "ScheduleResult":
        """Rebuild a result from :meth:`to_dict` output.

        ``dag_resolver`` is required to *materialise* payloads stored in
        dag_ref mode (see the module docstring); costs, stage traces and
        provenance are available without it.
        """
        try:
            data = as_mapping(data, "schedule result")
            stages_data = data.get("stages")
            breakdown = as_mapping(data.get("breakdown", {}), "breakdown")
            timings = as_mapping(data.get("timings", {}), "timings")
            return cls(
                scheduler=str(data["scheduler"]),
                fingerprint=str(data["fingerprint"]),
                cost=float(data["cost"]),
                breakdown={str(k): float(v) for k, v in breakdown.items()},
                num_supersteps=int(data["num_supersteps"]),
                stages=(
                    None
                    if stages_data is None
                    else StageCosts.from_dict(as_mapping(stages_data, "stages"))
                ),
                timings={str(k): float(v) for k, v in timings.items()},
                cache_hit=bool(data.get("cache_hit", False)),
                _schedule_dict=dict(data["schedule"]),
                _dag_resolver=dag_resolver,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed schedule result: {exc}") from exc

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, payload: str) -> "ScheduleResult":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))
