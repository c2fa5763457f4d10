"""The stateless scheduling request: instance + machine + spec + budget.

A :class:`ScheduleRequest` bundles everything one ``solve`` needs:

* the DAG — an in-memory :class:`~repro.core.dag.ComputationalDAG`, an
  inline wire dict (:func:`~repro.core.serialization.dag_to_dict` form), or
  a path reference to a DAG file in any on-disk format: hyperDAG text,
  memory-mapped ``.hdagb`` binary (loaded zero-copy, fingerprint read from
  the header), or ``.json`` stored ``dag_to_dict`` payloads — the
  content-addressed store's ``dags/`` entries — so queued requests can
  reference a shared DAG instead of embedding it;
* the machine — a declarative :class:`~repro.core.machine.MachineSpec` or a
  fully materialised :class:`~repro.core.machine.BspMachine`;
* the scheduler — a :class:`~repro.api.SchedulerSpec`;
* an optional unified :class:`~repro.schedulers.Budget` and a seed.

Requests are serializable (``to_dict``/``from_dict``/``to_json``) and
**content-addressed**: :meth:`ScheduleRequest.fingerprint` hashes the
resolved DAG content, the machine, the spec, the budget and the seed into a
stable hex digest — identical requests produce identical fingerprints in
any process, which is what the service cache and replay guarantees key on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.exceptions import ReproError
from ..core.machine import BspMachine, MachineSpec
from ..core.serialization import (
    dag_from_dict,
    dag_to_dict,
    machine_from_dict,
    machine_to_dict,
)
from ..core.wire import as_int, as_mapping
from ..schedulers.base import Budget
from .spec import SchedulerSpec

__all__ = ["ScheduleRequest", "dag_fingerprint"]


def dag_fingerprint(dag: ComputationalDAG) -> str:
    """Stable content hash of a DAG (structure + weights), memoized.

    Hashes the canonical buffers (node count, float64 weight vectors, int64
    edge arrays in insertion order) rather than a JSON rendering, so the
    digest is cheap even for million-edge DAGs and identical across
    processes.  The memo lives on the DAG and is dropped by every mutation
    (see ``ComputationalDAG._invalidate`` and the weight setters).
    """
    cached = getattr(dag, "_content_fingerprint", None)
    if cached is not None:
        return cached
    sources, targets = dag.edge_arrays()
    hasher = hashlib.sha256(b"repro-dag-v1")
    hasher.update(np.int64(dag.num_nodes).tobytes())
    hasher.update(np.ascontiguousarray(dag.work_weights, dtype=np.float64).tobytes())
    hasher.update(np.ascontiguousarray(dag.comm_weights, dtype=np.float64).tobytes())
    hasher.update(np.ascontiguousarray(sources, dtype=np.int64).tobytes())
    hasher.update(np.ascontiguousarray(targets, dtype=np.int64).tobytes())
    digest = hasher.hexdigest()
    dag._content_fingerprint = digest
    return digest


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class ScheduleRequest:
    """One self-contained, serializable scheduling problem.

    Parameters
    ----------
    dag:
        :class:`ComputationalDAG`, inline dict, or a hyperDAG file path.
    machine:
        :class:`MachineSpec` (declarative) or :class:`BspMachine` (explicit
        NUMA matrix).
    scheduler:
        The declarative scheduler recipe.
    budget:
        Optional unified budget; the service restarts its clock at solve
        time, so a request can sit in a queue without consuming it.
    seed:
        Default seed injected into seed-accepting schedulers whose spec
        does not pin one.

    Requests are treated as immutable once built (the resolved DAG and the
    fingerprint are memoized); construct a new request instead of mutating
    fields in place.
    """

    dag: ComputationalDAG | dict | str | Path
    machine: MachineSpec | BspMachine
    scheduler: SchedulerSpec
    budget: Budget | None = None
    seed: int = 0
    _resolved_dag: ComputationalDAG | None = field(
        default=None, repr=False, compare=False
    )
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    def resolve_dag(self) -> ComputationalDAG:
        """The materialised DAG (loaded/rebuilt once, then memoized)."""
        if self._resolved_dag is None:
            if isinstance(self.dag, ComputationalDAG):
                self._resolved_dag = self.dag
            elif isinstance(self.dag, dict):
                self._resolved_dag = dag_from_dict(self.dag)
            elif isinstance(self.dag, (str, Path)):
                # extension dispatch with a magic-bytes fallback: .hdagb
                # binary (zero-copy mapped load — the fingerprint comes
                # straight from the header, so file-reference requests
                # never touch the payload), .json stored dag_to_dict
                # payloads (the content-addressed store's dags/ entries —
                # lossless, unlike the %g-formatted hyperDAG text
                # weights), anything else hyperDAG text
                from ..io.hdagb import load_dag

                self._resolved_dag = load_dag(self.dag)
            else:
                raise ReproError(
                    f"unsupported DAG reference of type {type(self.dag).__name__}"
                )
        return self._resolved_dag

    def build_machine(self) -> BspMachine:
        """The materialised machine."""
        if isinstance(self.machine, BspMachine):
            return self.machine
        return self.machine.build()

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content-addressed identity of this request (stable across processes)."""
        if self._fingerprint is None:
            payload = {
                "dag": dag_fingerprint(self.resolve_dag()),
                "machine": self._machine_dict(),
                "scheduler": self.scheduler.to_dict(),
                "budget": None if self.budget is None else self.budget.to_dict(),
                "seed": int(self.seed),
            }
            self._fingerprint = hashlib.sha256(
                b"repro-request-v1" + _canonical_json(payload).encode("utf-8")
            ).hexdigest()
        return self._fingerprint

    def _machine_dict(self) -> dict:
        if isinstance(self.machine, BspMachine):
            return machine_to_dict(self.machine)
        return self.machine.to_dict()

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-compatible wire form (inverse of :meth:`from_dict`).

        File references stay references (``dag_ref``); in-memory and inline
        DAGs are embedded (``dag``), so a request shipped to another worker
        or machine is self-contained.
        """
        data: dict[str, Any] = {}
        if isinstance(self.dag, (str, Path)):
            data["dag_ref"] = str(self.dag)
        elif isinstance(self.dag, dict):
            data["dag"] = self.dag
        else:
            data["dag"] = dag_to_dict(self.dag)
        data["machine"] = self._machine_dict()
        data["scheduler"] = self.scheduler.to_dict()
        data["budget"] = None if self.budget is None else self.budget.to_dict()
        data["seed"] = int(self.seed)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        try:
            data = as_mapping(data, "schedule request")
            if "dag_ref" in data:
                dag: dict | str = str(data["dag_ref"])
            else:
                dag = dict(data["dag"])
            machine_data = as_mapping(data["machine"], "machine")
            # an explicit NUMA matrix marks a materialised machine; the
            # four-scalar form is a declarative spec
            if "numa" in machine_data:
                machine: MachineSpec | BspMachine = machine_from_dict(machine_data)
            else:
                machine = MachineSpec.from_dict(machine_data)
            scheduler = SchedulerSpec.from_dict(data["scheduler"])
            budget_data = data.get("budget")
            budget = (
                None
                if budget_data is None
                else Budget.from_dict(as_mapping(budget_data, "budget"))
            )
            seed = as_int(data.get("seed", 0), "seed")
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed schedule request: {exc}") from exc
        return cls(
            dag=dag, machine=machine, scheduler=scheduler, budget=budget, seed=seed
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "ScheduleRequest":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))
