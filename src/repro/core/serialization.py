"""JSON (de)serialisation of problem instances and schedules.

The experiment harness and the CLI persist three kinds of objects:

* :class:`~repro.core.dag.ComputationalDAG` — nodes with weights plus edges,
* :class:`~repro.core.machine.BspMachine` — ``P``, ``g``, ``ℓ`` and the NUMA
  matrix,
* :class:`~repro.core.schedule.BspSchedule` — the assignment ``(π, τ)`` and,
  when explicit, the communication schedule ``Γ``.

All functions produce plain JSON-compatible dictionaries (``to_dict``) or
strings/files (``dumps``/``save``), and their inverses re-validate the data
so that hand-edited files cannot silently produce invalid schedules.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .comm import CommStep
from .dag import ComputationalDAG
from .exceptions import ReproError
from .machine import BspMachine
from .schedule import BspSchedule
from .wire import as_float, as_int

__all__ = [
    "dag_to_dict",
    "dag_from_dict",
    "machine_to_dict",
    "machine_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]


def dag_to_dict(dag: ComputationalDAG) -> dict[str, Any]:
    """JSON-compatible representation of a DAG."""
    return {
        "name": dag.name,
        "num_nodes": dag.num_nodes,
        "work": [float(w) for w in dag.work_weights],
        "comm": [float(c) for c in dag.comm_weights],
        "edges": [[edge.source, edge.target] for edge in dag.edges()],
    }


def dag_from_dict(data: dict[str, Any]) -> ComputationalDAG:
    """Rebuild a DAG from :func:`dag_to_dict` output."""
    try:
        dag = ComputationalDAG(
            int(data["num_nodes"]),
            work_weights=data["work"],
            comm_weights=data["comm"],
            name=str(data.get("name", "dag")),
        )
        for source, target in data["edges"]:
            dag.add_edge(int(source), int(target))
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed DAG dictionary: {exc}") from exc
    if not dag.is_acyclic():
        raise ReproError("serialised graph is not acyclic")
    return dag


def machine_to_dict(machine: BspMachine) -> dict[str, Any]:
    """JSON-compatible representation of a machine."""
    return {
        "num_procs": int(machine.num_procs),
        "g": float(machine.g),
        "latency": float(machine.latency),
        "numa": machine.numa.tolist(),
    }


def machine_from_dict(data: dict[str, Any]) -> BspMachine:
    """Rebuild a machine from :func:`machine_to_dict` output."""
    try:
        return BspMachine(
            num_procs=as_int(data["num_procs"], "num_procs"),
            g=as_float(data["g"], "g"),
            latency=as_float(data["latency"], "latency"),
            numa=np.asarray(data["numa"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed machine dictionary: {exc}") from exc


def schedule_to_dict(schedule: BspSchedule, include_dag: bool = True) -> dict[str, Any]:
    """JSON-compatible representation of a schedule (with its instance).

    ``include_dag=False`` omits the instance payload — for callers that
    store or ship the DAG separately (dag_ref mode); building the DAG dict
    dominates serialisation cost on large instances.
    """
    payload: dict[str, Any] = {}
    if include_dag:
        payload["dag"] = dag_to_dict(schedule.dag)
    payload |= {
        "machine": machine_to_dict(schedule.machine),
        "procs": [int(p) for p in schedule.procs],
        "supersteps": [int(s) for s in schedule.supersteps],
        "cost": schedule.cost(),
    }
    if not schedule.uses_lazy_comm:
        payload["comm_schedule"] = [
            [step.node, step.source, step.target, step.superstep]
            for step in sorted(schedule.comm_schedule)
        ]
    return payload


def schedule_from_dict(data: dict[str, Any], dag_resolver=None) -> BspSchedule:
    """Rebuild (and re-validate) a schedule from :func:`schedule_to_dict` output.

    Payloads in *dag_ref mode* (a ``"dag_ref"`` string instead of an
    embedded ``"dag"`` sub-dict — what the content-addressed store writes)
    need ``dag_resolver``, a callable mapping the reference to the DAG wire
    dict (e.g. :meth:`repro.store.ResultStore.load_dag_dict`) or directly
    to a :class:`ComputationalDAG` (e.g. a file loader — this skips the
    dict round-trip for formats with a faster native path such as the
    memory-mapped ``.hdagb`` binary).
    """
    if "dag" in data:
        dag_dict = data["dag"]
    elif "dag_ref" in data:
        if dag_resolver is None:
            raise ReproError(
                f"schedule payload references DAG {data['dag_ref']!r}; pass a "
                "dag_resolver (or load via the result store) to materialise it"
            )
        dag_dict = dag_resolver(str(data["dag_ref"]))
    else:
        raise ReproError("schedule payload carries neither 'dag' nor 'dag_ref'")
    dag = dag_dict if isinstance(dag_dict, ComputationalDAG) else dag_from_dict(dag_dict)
    machine = machine_from_dict(data["machine"])
    comm = None
    if "comm_schedule" in data:
        comm = [
            CommStep(int(v), int(p1), int(p2), int(s))
            for v, p1, p2, s in data["comm_schedule"]
        ]
    return BspSchedule(dag, machine, data["procs"], data["supersteps"], comm)


def save_schedule(schedule: BspSchedule, path: str | Path) -> None:
    """Write a schedule (plus its instance) to a JSON file."""
    Path(path).write_text(
        json.dumps(schedule_to_dict(schedule), indent=2), encoding="utf-8"
    )


def load_schedule(path: str | Path, store: str | Path | None = None) -> BspSchedule:
    """Load a schedule previously written by :func:`save_schedule`.

    Reads every format ever emitted: the plain :func:`save_schedule`
    payload, the service API's :class:`repro.api.ScheduleResult` wire
    format (what ``repro schedule --output`` emits — the schedule payload
    nested under a ``"schedule"`` key), and dag_ref-mode payloads (what the
    content-addressed store writes).  For dag_ref payloads the reference is
    resolved against ``store`` (a store root directory) when given, else
    against the nearest ancestor of ``path`` that contains a ``dags/``
    directory — which is exactly where a file read out of a store sits; a
    reference that is not a store entry but *is* a DAG file path (hyperDAG
    text, ``.hdagb`` binary, stored ``.json`` — what a file-reference
    :meth:`ScheduleRequest.to_dict` emits) is loaded from that file, tried
    absolute and then relative to the schedule file's directory.
    """
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if "schedule" in data and "procs" not in data:
        data = data["schedule"]
    dag_resolver = None
    if "dag" not in data and "dag_ref" in data:
        root = _discover_store_root(path, store)

        def dag_resolver(ref: str):
            if root is not None:
                from ..store.results import ResultStore

                result_store = ResultStore(root)
                if result_store.dag_path(ref).is_file():
                    return result_store.load_dag_dict(ref)
            from ..io.hdagb import load_dag

            for candidate in (Path(ref), path.parent / ref):
                if candidate.is_file():
                    return load_dag(candidate)
            raise ReproError(
                f"dag_ref {ref!r} is neither a store entry"
                f"{f' under {root}' if root is not None else ''} nor a "
                "readable DAG file"
            )

    return schedule_from_dict(data, dag_resolver=dag_resolver)


def _discover_store_root(path: Path, store: str | Path | None) -> Path | None:
    """The store root to resolve ``dag_ref``\\ s against (explicit or inferred)."""
    if store is not None:
        return Path(store)
    for ancestor in path.resolve().parents:
        if (ancestor / "dags").is_dir():
            return ancestor
    return None
