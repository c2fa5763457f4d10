"""HyperDAG file format (paper Section 5 / Appendix B).

The paper's DAG database stores computational DAGs in a *hyperDAG* format:
every non-sink node contributes one hyperedge containing the node itself and
all of its direct successors (modelling the fact that a value only has to be
communicated once per target processor).  For scheduling this is simply an
alternative encoding of the DAG, and all algorithms convert it back to the
plain DAG representation first.

The concrete text format used here is line-oriented and self-describing::

    %% HyperDAG <name>
    % optional comment lines start with '%'
    nodes <n>
    <work_0> <comm_0>
    ...
    <work_{n-1}> <comm_{n-1}>
    hyperedges <h>
    <source> <succ_1> <succ_2> ...
    ...

Node indices are 0-based.  :func:`write_hyperdag` and :func:`read_hyperdag`
round-trip :class:`~repro.core.dag.ComputationalDAG` objects exactly.
Malformed input raises :class:`~repro.core.exceptions.DagError` naming the
offending line: counts and node ids must be integers, and weights finite,
non-negative numbers.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import TextIO

from ..core.dag import ComputationalDAG
from ..core.exceptions import DagError

__all__ = ["write_hyperdag", "read_hyperdag", "dumps_hyperdag", "loads_hyperdag"]


def dumps_hyperdag(dag: ComputationalDAG) -> str:
    """Serialise ``dag`` to a hyperDAG-format string."""
    buffer = io.StringIO()
    _write(dag, buffer)
    return buffer.getvalue()


def write_hyperdag(dag: ComputationalDAG, path: str | Path) -> None:
    """Write ``dag`` to ``path`` in hyperDAG format."""
    with open(path, "w", encoding="utf-8") as handle:
        _write(dag, handle)


def _write(dag: ComputationalDAG, handle: TextIO) -> None:
    handle.write(f"%% HyperDAG {dag.name}\n")
    handle.write(f"% nodes={dag.num_nodes} edges={dag.num_edges}\n")
    handle.write(f"nodes {dag.num_nodes}\n")
    for v in dag.nodes():
        handle.write(f"{dag.work(v):g} {dag.comm(v):g}\n")
    hyperedges = [(v, dag.successors(v)) for v in dag.nodes() if dag.out_degree(v) > 0]
    handle.write(f"hyperedges {len(hyperedges)}\n")
    for source, succs in hyperedges:
        handle.write(" ".join(str(x) for x in [source, *succs]) + "\n")


def loads_hyperdag(text: str) -> ComputationalDAG:
    """Parse a hyperDAG-format string into a :class:`ComputationalDAG`."""
    return _read(io.StringIO(text))


def read_hyperdag(path: str | Path) -> ComputationalDAG:
    """Read a hyperDAG file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return _read(handle)


def _integer(text: str, number: int, line: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DagError(f"line {number}: {text!r} is not an integer in {line!r}") from None


def _weight(text: str, number: int, line: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DagError(f"line {number}: {text!r} is not a number in {line!r}") from None
    if not math.isfinite(value) or value < 0:
        raise DagError(f"line {number}: weight {text!r} is not finite and non-negative")
    return value


def _read(handle: TextIO) -> ComputationalDAG:
    name = "hyperdag"
    lines: list[tuple[int, str]] = []
    for number, raw in enumerate(handle, start=1):
        stripped = raw.strip()
        if stripped.startswith("%%"):
            parts = stripped.split(maxsplit=2)
            if len(parts) >= 3:
                name = parts[2]
            continue
        if not stripped or stripped.startswith("%"):
            continue
        lines.append((number, stripped))
    cursor = 0

    def next_line() -> tuple[int, str]:
        nonlocal cursor
        if cursor >= len(lines):
            raise DagError("unexpected end of hyperDAG file")
        cursor += 1
        return lines[cursor - 1]

    def count(keyword: str) -> int:
        number, line = next_line()
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise DagError(f"line {number}: expected '{keyword} <count>' header, got {line!r}")
        value = _integer(parts[1], number, line)
        if value < 0:
            raise DagError(f"line {number}: negative count in {line!r}")
        return value

    num_nodes = count("nodes")
    works: list[float] = []
    comms: list[float] = []
    for _ in range(num_nodes):
        number, line = next_line()
        parts = line.split()
        if len(parts) != 2:
            raise DagError(f"line {number}: expected 'work comm' node line, got {line!r}")
        works.append(_weight(parts[0], number, line))
        comms.append(_weight(parts[1], number, line))
    num_hyperedges = count("hyperedges")
    sources: list[int] = []
    targets: list[int] = []
    for _ in range(num_hyperedges):
        number, line = next_line()
        parts = [_integer(x, number, line) for x in line.split()]
        if len(parts) < 2:
            raise DagError(
                f"line {number}: hyperedge line must contain a source and at least "
                f"one successor, got {line!r}"
            )
        sources.extend([parts[0]] * (len(parts) - 1))
        targets.extend(parts[1:])
    dag = ComputationalDAG.from_edge_arrays(
        num_nodes, sources, targets, works, comms, name=name
    )
    if not dag.is_acyclic():
        raise DagError("hyperDAG file encodes a cyclic graph")
    return dag
