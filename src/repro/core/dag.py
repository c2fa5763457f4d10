"""Weighted computational DAG container backed by CSR adjacency.

A :class:`ComputationalDAG` stores the structure of a computation as used
throughout the paper (Section 3.1): nodes are operations, directed edges are
data dependencies, and each node ``v`` carries an integer *work weight*
``w(v)`` (time to execute ``v``) and a *communication weight* ``c(v)`` (cost
of sending the output of ``v`` to another processor).

A DAG never changes once it is built.  It comes from the constructor (an
edgeless DAG), :meth:`ComputationalDAG.from_edge_arrays`,
:meth:`DagBuilder.freeze` or a file reader, and a re-weighted DAG is a new
one (:meth:`ComputationalDAG.with_weights`).  Derived quantities used by the
schedulers (topological order, levels, bottom levels, the content
fingerprint, ...) are computed lazily and then kept for the DAG's lifetime:
no cached answer can go stale.

Implementation notes
--------------------
A DAG holds its edges as flat ``source``/``target`` int64 arrays, from which
two CSR (compressed sparse row) views are materialised on the first
structural query: ``succ_indptr``/``succ_indices`` and
``pred_indptr``/``pred_indices``.  Rows preserve edge insertion order, so
neighbourhood traversals visit exactly the same sequence as the historical
list-of-lists container.  The derived kernels (levels, bottom levels,
reachability, induced subgraphs) are vectorized over the CSR arrays in
:mod:`repro.core.csr`.  Every array a DAG hands out is read-only.

:class:`DagBuilder` is the one incremental builder: amortized-O(1) appends
into capacity-doubling buffers (plus the vectorized ``add_nodes_array`` and
``add_edges_array``), then ``freeze()`` into a DAG with a single vectorized
duplicate check.  The DAG-database generators emit their edge blocks
through it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .csr import (
    bottom_levels_csr,
    build_csr,
    gather_rows,
    has_path_csr,
    reachable_mask,
    topological_levels,
)
from .exceptions import CycleError, DagError

__all__ = ["ComputationalDAG", "DagBuilder", "EdgeView"]

_INT = np.int64

#: the caches that depend on the edges alone, which a re-weighted DAG shares
_STRUCTURE_CACHES = (
    "_succ_indptr",
    "_succ_indices",
    "_pred_indptr",
    "_pred_indices",
    "_edge_sources",
    "_topo_cache",
    "_level_cache",
)


@dataclass(frozen=True)
class EdgeView:
    """A single directed edge ``(source, target)`` of a DAG."""

    source: int
    target: int


def _grow(buffer: np.ndarray, needed: int) -> np.ndarray:
    """Return a buffer of capacity >= ``needed`` (amortized doubling)."""
    capacity = buffer.shape[0]
    if needed <= capacity:
        return buffer
    new_capacity = max(needed, 2 * capacity, 16)
    grown = np.empty(new_capacity, dtype=buffer.dtype)
    grown[:capacity] = buffer
    return grown


def _check_weights(weights: np.ndarray, label: str) -> None:
    """Refuse a negative, NaN or infinite weight (every constructor's check)."""
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise DagError(f"{label} must be finite and non-negative")


def _weights(values: Sequence[float] | None, num_nodes: int, label: str) -> np.ndarray:
    """A fresh, checked weight vector of length ``num_nodes`` (default all ones)."""
    if values is None:
        return np.ones(num_nodes, dtype=np.float64)
    weights = np.array(values, dtype=np.float64)
    if weights.shape != (num_nodes,):
        raise DagError(
            f"{label} must have length {num_nodes}, got shape {weights.shape}"
        )
    _check_weights(weights, label)
    return weights


class ComputationalDAG:
    """A directed acyclic graph with per-node work and communication weights.

    The constructor builds an edgeless DAG; DAGs with edges come from
    :meth:`from_edge_arrays`, :meth:`DagBuilder.freeze` or the readers.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are labelled ``0 .. num_nodes - 1``.
    work_weights:
        Optional sequence of work weights ``w(v)``; defaults to all ones.
    comm_weights:
        Optional sequence of communication weights ``c(v)``; defaults to all
        ones.
    name:
        Optional human readable name (used by the DAG database and reports).
    """

    def __init__(
        self,
        num_nodes: int = 0,
        work_weights: Sequence[float] | None = None,
        comm_weights: Sequence[float] | None = None,
        name: str = "dag",
    ) -> None:
        if num_nodes < 0:
            raise DagError(f"num_nodes must be non-negative, got {num_nodes}")
        no_edges = np.empty(0, dtype=_INT)
        self._adopt(
            int(num_nodes),
            _weights(work_weights, num_nodes, "work_weights"),
            _weights(comm_weights, num_nodes, "comm_weights"),
            no_edges,
            no_edges,
            name,
        )

    @classmethod
    def _from_buffers(
        cls,
        num_nodes: int,
        work: np.ndarray,
        comm: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        name: str,
    ) -> "ComputationalDAG":
        """Adopt pre-validated buffers without copying (builder fast path)."""
        dag = cls.__new__(cls)
        dag._adopt(int(num_nodes), work, comm, sources, targets, name)
        return dag

    def _adopt(
        self,
        num_nodes: int,
        work: np.ndarray,
        comm: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        name: str,
    ) -> None:
        """Take ownership of exactly-sized buffers and freeze them."""
        for array in (work, comm, sources, targets):
            if array is not None:  # a mapped DAG derives its sources later
                array.flags.writeable = False
        self.name = name
        self._n = num_nodes
        self._work = work
        self._comm = comm
        self._m = int(targets.shape[0])
        self._esrc = sources
        self._edst = targets
        # derived caches, each filled on first use and kept from then on
        self._succ_indptr: np.ndarray | None = None
        self._succ_indices: np.ndarray | None = None
        self._pred_indptr: np.ndarray | None = None
        self._pred_indices: np.ndarray | None = None
        # source column of edge_arrays(), derived from succ_indptr
        self._edge_sources: np.ndarray | None = None
        self._topo_cache: list[int] | None = None
        self._level_cache: np.ndarray | None = None
        self._bottom_level_cache: np.ndarray | None = None
        # content fingerprint memo (filled by repro.api.request.dag_fingerprint)
        self._content_fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_arrays(
        cls,
        num_nodes: int,
        sources: np.ndarray | Sequence[int],
        targets: np.ndarray | Sequence[int],
        work_weights: Sequence[float] | None = None,
        comm_weights: Sequence[float] | None = None,
        name: str = "dag",
        *,
        validate: bool = True,
    ) -> "ComputationalDAG":
        """Build a DAG from parallel edge arrays in one shot.

        With ``validate`` (default) the edge arrays are checked for
        out-of-range endpoints, self-loops and duplicates using vectorized
        passes; acyclicity is, as everywhere, verified lazily on the first
        topological query.
        """
        if num_nodes < 0:
            raise DagError(f"num_nodes must be non-negative, got {num_nodes}")
        try:
            src = np.array(sources, dtype=_INT)
            dst = np.array(targets, dtype=_INT)
        except OverflowError as exc:
            raise DagError(f"edge endpoint out of range (n={num_nodes})") from exc
        if src.shape != dst.shape or src.ndim != 1:
            raise DagError("sources and targets must be 1-D arrays of equal length")
        # weights first: their length pins num_nodes before it scales edge keys
        work = _weights(work_weights, num_nodes, "work_weights")
        comm = _weights(comm_weights, num_nodes, "comm_weights")
        if validate:
            _validate_edge_arrays(num_nodes, src, dst)
        return cls._from_buffers(num_nodes, work, comm, src, dst, name)

    def with_weights(
        self, work_weights: Sequence[float], comm_weights: Sequence[float]
    ) -> "ComputationalDAG":
        """This DAG's structure under new work and communication weights.

        The result shares the edge arrays and every cache that depends on
        the edges alone (CSR, edge sources, levels, topological order), so
        re-weighting never rebuilds the CSR; its bottom levels and content
        fingerprint are its own.  This DAG is left as it was.
        """
        self._ensure_csr()
        dag = ComputationalDAG._from_buffers(
            self._n,
            _weights(work_weights, self._n, "work_weights"),
            _weights(comm_weights, self._n, "comm_weights"),
            self._esrc,
            self._edst,
            self.name,
        )
        for cache in _STRUCTURE_CACHES:
            setattr(dag, cache, getattr(self, cache))
        return dag

    def __setstate__(self, state: dict) -> None:
        # numpy unpickles arrays writeable: freeze them again
        self.__dict__.update(state)
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise DagError(f"node {v} does not exist (n={self._n})")

    def _ensure_csr(self) -> None:
        if self._succ_indptr is not None:
            return
        succ_indptr, succ_indices = build_csr(self._n, self._esrc, self._edst)
        pred_indptr, pred_indices = build_csr(self._n, self._edst, self._esrc)
        for array in (succ_indptr, succ_indices, pred_indptr, pred_indices):
            array.flags.writeable = False
        self._succ_indptr = succ_indptr
        self._succ_indices = succ_indices
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._m

    @property
    def work_weights(self) -> np.ndarray:
        """Work weight vector ``w`` (read-only)."""
        return self._work

    @property
    def comm_weights(self) -> np.ndarray:
        """Communication weight vector ``c`` (read-only)."""
        return self._comm

    def work(self, v: int) -> float:
        """Work weight ``w(v)``."""
        return float(self._work[v])

    def comm(self, v: int) -> float:
        """Communication weight ``c(v)``."""
        return float(self._comm[v])

    @property
    def total_work(self) -> float:
        """Sum of all work weights."""
        return float(self._work.sum())

    @property
    def total_comm(self) -> float:
        """Sum of all communication weights."""
        return float(self._comm.sum())

    # ------------------------------------------------------------------ #
    # adjacency access
    # ------------------------------------------------------------------ #
    @property
    def succ_indptr(self) -> np.ndarray:
        """CSR row pointer of the successor structure (read-only)."""
        self._ensure_csr()
        return self._succ_indptr  # type: ignore[return-value]

    @property
    def succ_indices(self) -> np.ndarray:
        """CSR column indices of the successor structure (read-only)."""
        self._ensure_csr()
        return self._succ_indices  # type: ignore[return-value]

    @property
    def pred_indptr(self) -> np.ndarray:
        """CSR row pointer of the predecessor structure (read-only)."""
        self._ensure_csr()
        return self._pred_indptr  # type: ignore[return-value]

    @property
    def pred_indices(self) -> np.ndarray:
        """CSR column indices of the predecessor structure (read-only)."""
        self._ensure_csr()
        return self._pred_indices  # type: ignore[return-value]

    def succ(self, v: int) -> np.ndarray:
        """Direct successors of ``v`` as a zero-copy read-only array slice."""
        self._check_node(v)
        self._ensure_csr()
        return self._succ_indices[self._succ_indptr[v] : self._succ_indptr[v + 1]]

    def pred(self, v: int) -> np.ndarray:
        """Direct predecessors of ``v`` as a zero-copy read-only array slice."""
        self._check_node(v)
        self._ensure_csr()
        return self._pred_indices[self._pred_indptr[v] : self._pred_indptr[v + 1]]

    def successors(self, v: int) -> list[int]:
        """Direct successors (out-neighbours) of ``v`` as a fresh list.

        Prefer :meth:`succ` in hot loops; this list-returning accessor is
        kept for compatibility and convenience.
        """
        return self.succ(v).tolist()

    def predecessors(self, v: int) -> list[int]:
        """Direct predecessors (in-neighbours) of ``v`` as a fresh list.

        Prefer :meth:`pred` in hot loops.
        """
        return self.pred(v).tolist()

    def out_degree(self, v: int) -> int:
        """Number of direct successors of ``v``."""
        self._check_node(v)
        self._ensure_csr()
        return int(self._succ_indptr[v + 1] - self._succ_indptr[v])

    def in_degree(self, v: int) -> int:
        """Number of direct predecessors of ``v``."""
        self._check_node(v)
        self._ensure_csr()
        return int(self._pred_indptr[v + 1] - self._pred_indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of all out-degrees."""
        self._ensure_csr()
        return np.diff(self._succ_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of all in-degrees."""
        self._ensure_csr()
        return np.diff(self._pred_indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists (O(out-degree) scan)."""
        self._check_node(v)
        return bool((self.succ(u) == int(v)).any())

    def nodes(self) -> range:
        """Iterable of all node indices."""
        return range(self._n)

    def edges(self) -> Iterator[EdgeView]:
        """Iterate over all edges as :class:`EdgeView` objects."""
        sources, targets = self.edge_arrays()
        for u, v in zip(sources.tolist(), targets.tolist()):
            yield EdgeView(u, v)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel ``(sources, targets)`` arrays of all edges (read-only).

        Edges are ordered by source, with insertion order within each
        source — the same order as :meth:`edges`.
        """
        self._ensure_csr()
        if self._edge_sources is None:
            sources = np.repeat(
                np.arange(self._n, dtype=_INT), np.diff(self._succ_indptr)
            )
            sources.flags.writeable = False
            self._edge_sources = sources
        return self._edge_sources, self._succ_indices  # type: ignore[return-value]

    def sources(self) -> list[int]:
        """Nodes with no predecessors."""
        self._ensure_csr()
        return np.flatnonzero(np.diff(self._pred_indptr) == 0).tolist()

    def sinks(self) -> list[int]:
        """Nodes with no successors."""
        self._ensure_csr()
        return np.flatnonzero(np.diff(self._succ_indptr) == 0).tolist()

    # ------------------------------------------------------------------ #
    # structural algorithms
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[int]:
        """A topological order of the nodes (Kahn's algorithm, cached).

        The order matches the historical FIFO Kahn traversal exactly, so
        every order-sensitive consumer (batched ILP windows, superstep
        numbering, ...) behaves identically to the list-based container.

        Raises
        ------
        CycleError
            If the graph contains a directed cycle.
        """
        if self._topo_cache is None:
            self._ensure_csr()
            indptr = self._succ_indptr.tolist()  # type: ignore[union-attr]
            succ = self._succ_indices.tolist()  # type: ignore[union-attr]
            indegree = np.diff(self._pred_indptr).tolist()
            queue = deque(v for v in range(self._n) if indegree[v] == 0)
            order: list[int] = []
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in succ[indptr[v] : indptr[v + 1]]:
                    indegree[w] -= 1
                    if indegree[w] == 0:
                        queue.append(w)
            if len(order) != self._n:
                raise CycleError("graph contains a directed cycle")
            self._topo_cache = order
        return list(self._topo_cache)

    def is_acyclic(self) -> bool:
        """Whether the graph is a DAG."""
        try:
            self._levels_internal()
            return True
        except CycleError:
            return False

    def _levels_internal(self) -> np.ndarray:
        if self._level_cache is None:
            self._ensure_csr()
            self._level_cache = topological_levels(
                self._n,
                self._succ_indptr,
                self._succ_indices,
                self._pred_indptr,
            )
        return self._level_cache

    def levels(self) -> np.ndarray:
        """Top level of every node: length of the longest edge-path from any source.

        Sources have level 0.  This is the wavefront index used by
        level-based schedulers such as HDagg.  Computed with the vectorized
        level-synchronous sweep in :func:`repro.core.csr.topological_levels`.
        """
        return self._levels_internal().copy()

    def bottom_levels(self) -> np.ndarray:
        """Bottom level of every node: maximum total work on any path starting at it.

        ``bl(v) = w(v) + max_{(v,u) in E} bl(u)`` (and ``bl(v) = w(v)`` for
        sinks).  Used as the priority of the BL-EST list scheduler.
        Vectorized level group by level group via ``np.maximum.reduceat``.
        """
        if self._bottom_level_cache is None:
            levels = self._levels_internal()
            self._bottom_level_cache = bottom_levels_csr(
                levels,
                self._succ_indptr,
                self._succ_indices,
                self._work,
            )
        return self._bottom_level_cache.copy()

    def critical_path_length(self) -> float:
        """Maximum total work along any directed path (the work-span)."""
        if self._n == 0:
            return 0.0
        return float(self.bottom_levels().max())

    def depth(self) -> int:
        """Number of levels (longest path in edges, plus one); 0 for an empty DAG."""
        if self._n == 0:
            return 0
        return int(self._levels_internal().max()) + 1

    def has_path(self, source: int, target: int) -> bool:
        """Whether a directed path from ``source`` to ``target`` exists.

        The trivial path of length zero (``source == target``) counts.
        """
        self._check_node(source)
        self._check_node(target)
        if source == target:
            return True
        self._ensure_csr()
        return has_path_csr(
            self._succ_indptr, self._succ_indices, int(source), int(target), self._n
        )

    def descendants_mask(self, v: int) -> np.ndarray:
        """Boolean mask of all nodes reachable from ``v`` (excluding ``v``)."""
        self._check_node(v)
        self._ensure_csr()
        return reachable_mask(self._succ_indptr, self._succ_indices, int(v), self._n)

    def ancestors_mask(self, v: int) -> np.ndarray:
        """Boolean mask of all nodes that can reach ``v`` (excluding ``v``)."""
        self._check_node(v)
        self._ensure_csr()
        return reachable_mask(self._pred_indptr, self._pred_indices, int(v), self._n)

    def descendants(self, v: int) -> set[int]:
        """All nodes reachable from ``v`` (excluding ``v``)."""
        return set(np.flatnonzero(self.descendants_mask(v)).tolist())

    def ancestors(self, v: int) -> set[int]:
        """All nodes that can reach ``v`` (excluding ``v``)."""
        return set(np.flatnonzero(self.ancestors_mask(v)).tolist())

    def weakly_connected_components(self) -> list[list[int]]:
        """Weakly connected components, each as a sorted node list.

        Union-find over the edge arrays; components are ordered by their
        smallest member (the historical DFS output order).
        """
        parent = list(range(self._n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]  # path halving
                x = parent[x]
            return x

        sources, targets = self.edge_arrays()
        for u, v in zip(sources.tolist(), targets.tolist()):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru

        members: dict[int, list[int]] = {}
        components: list[list[int]] = []
        for v in range(self._n):
            root = find(v)
            group = members.get(root)
            if group is None:
                group = []
                members[root] = group
                components.append(group)
            group.append(v)
        return components

    def largest_connected_component(self) -> "ComputationalDAG":
        """The induced sub-DAG on the largest weakly connected component.

        Mirrors the paper's preprocessing of extracted GraphBLAS DAGs
        (Appendix B.1).  Node indices are relabelled contiguously preserving
        relative order.
        """
        if self._n == 0:
            return ComputationalDAG(0, name=self.name)
        components = self.weakly_connected_components()
        best = max(components, key=len)
        return self.induced_subgraph(best)

    def induced_subgraph(self, nodes: Sequence[int]) -> "ComputationalDAG":
        """Induced sub-DAG on ``nodes`` with contiguous relabelling.

        The ``i``-th node of the result corresponds to ``nodes[i]``.
        Fully vectorized: one ragged gather over the successor rows of
        ``nodes`` plus a membership filter.
        """
        nodes_arr = np.asarray(list(nodes), dtype=_INT)
        if nodes_arr.size and (
            nodes_arr.min() < 0 or nodes_arr.max() >= self._n
        ):
            raise DagError("induced_subgraph: node index out of range")
        if np.unique(nodes_arr).size != nodes_arr.size:
            raise DagError("induced_subgraph: duplicate node ids")
        self._ensure_csr()
        index = np.full(self._n, -1, dtype=_INT)
        index[nodes_arr] = np.arange(nodes_arr.size, dtype=_INT)
        targets, offsets = gather_rows(
            self._succ_indptr, self._succ_indices, nodes_arr
        )
        new_sources = np.repeat(
            np.arange(nodes_arr.size, dtype=_INT), np.diff(offsets)
        )
        new_targets = index[targets]
        keep = new_targets >= 0
        return ComputationalDAG._from_buffers(
            nodes_arr.size,
            self._work[nodes_arr],
            self._comm[nodes_arr],
            np.ascontiguousarray(new_sources[keep]),
            np.ascontiguousarray(new_targets[keep]),
            name=f"{self.name}_sub",
        )

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` with ``work``/``comm`` node attrs."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(
            (v, {"work": work, "comm": comm})
            for v, (work, comm) in enumerate(zip(self._work.tolist(), self._comm.tolist()))
        )
        graph.add_edges_from((edge.source, edge.target) for edge in self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph, name: str | None = None) -> "ComputationalDAG":
        """Build from a :class:`networkx.DiGraph`.

        Node attributes ``work`` and ``comm`` are used when present
        (default 1.0).  Nodes are relabelled ``0..n-1`` in sorted order of
        their original labels.
        """
        nodes = sorted(graph.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        edges = np.array(
            [(index[u], index[v]) for u, v in graph.edges()], dtype=_INT
        ).reshape(-1, 2)
        dag = cls.from_edge_arrays(
            len(nodes),
            edges[:, 0],
            edges[:, 1],
            work_weights=[float(graph.nodes[v].get("work", 1.0)) for v in nodes],
            comm_weights=[float(graph.nodes[v].get("comm", 1.0)) for v in nodes],
            name=name or str(graph.name or "dag"),
        )
        if not dag.is_acyclic():
            raise CycleError("input graph is not acyclic")
        return dag

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ComputationalDAG(name={self.name!r}, n={self.num_nodes}, "
            f"m={self.num_edges})"
        )


def _check_edge_endpoints(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Vectorized endpoint-range and self-loop validation of edge arrays."""
    if src.size == 0:
        return
    if src.min() < 0 or dst.min() < 0 or src.max() >= num_nodes or dst.max() >= num_nodes:
        raise DagError(f"edge endpoint out of range (n={num_nodes})")
    loops = src == dst
    if loops.any():
        v = int(src[np.argmax(loops)])
        raise CycleError(f"self-loop on node {v} is not allowed")


def _check_no_duplicate_edges(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Vectorized duplicate-edge validation (endpoints must already be valid).

    One explicit sort over the packed edge keys; ``np.unique`` would do the
    same job but goes through a hash table on current numpy, which is several
    times slower on multi-million-edge buffers.
    """
    if src.size == 0:
        return
    keys = src * np.int64(num_nodes) + dst
    sorted_keys = np.sort(keys)
    duplicates = sorted_keys[1:] == sorted_keys[:-1]
    if duplicates.any():
        dup = sorted_keys[int(np.argmax(duplicates))]
        raise DagError(
            f"duplicate edge ({int(dup // num_nodes)}, {int(dup % num_nodes)})"
        )


def _validate_edge_arrays(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Vectorized range / self-loop / duplicate validation of edge arrays."""
    _check_edge_endpoints(num_nodes, src, dst)
    _check_no_duplicate_edges(num_nodes, src, dst)


class DagBuilder:
    """The one incremental DAG builder: append nodes and edges, then :meth:`freeze`.

    Appends are amortized O(1) into capacity-doubling numpy buffers, plus
    the vectorized bulk entry points :meth:`add_nodes_array` and
    :meth:`add_edges_array`.  Weights (finite, non-negative), endpoint
    ranges and self-loops are checked on append; duplicate edges once,
    vectorized, at :meth:`freeze` time; acyclicity stays lazily checked by
    the frozen DAG like everywhere else.

    The builder remains usable after ``freeze()`` (the frozen DAG owns
    trimmed copies of the buffers), so one builder can emit a family of
    growing DAGs.
    """

    def __init__(
        self,
        num_nodes: int = 0,
        work_weights: Sequence[float] | None = None,
        comm_weights: Sequence[float] | None = None,
        name: str = "dag",
    ) -> None:
        if num_nodes < 0:
            raise DagError(f"num_nodes must be non-negative, got {num_nodes}")
        self.name = name
        self._n = int(num_nodes)
        self._work = _weights(work_weights, num_nodes, "work_weights")
        self._comm = _weights(comm_weights, num_nodes, "comm_weights")
        self._m = 0
        self._esrc = np.empty(0, dtype=_INT)
        self._edst = np.empty(0, dtype=_INT)

    @property
    def num_nodes(self) -> int:
        """Number of nodes appended so far."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges appended so far."""
        return self._m

    def add_node(self, work: float = 1.0, comm: float = 1.0) -> int:
        """Append a node and return its index."""
        return self.add_node_block(1, work, comm)

    def add_nodes(self, count: int, work: float = 1.0, comm: float = 1.0) -> list[int]:
        """Append ``count`` nodes with identical weights; return their indices."""
        first = self.add_node_block(count, work, comm)
        return list(range(first, self._n)) if count > 0 else []

    def add_node_block(self, count: int, work: float = 1.0, comm: float = 1.0) -> int:
        """Append ``count`` nodes; return the first index (no index list built).

        The block-emitting generators allocate millions of nodes at once and
        derive ids arithmetically, so materialising the python list that
        :meth:`add_nodes` returns would be pure overhead.
        """
        first = self._n
        if count <= 0:
            return first
        work, comm = float(work), float(comm)
        if not (0.0 <= work < math.inf and 0.0 <= comm < math.inf):
            raise DagError("node weights must be finite and non-negative")
        self._n += count
        self._work = _grow(self._work, self._n)
        self._comm = _grow(self._comm, self._n)
        self._work[first : self._n] = work
        self._comm[first : self._n] = comm
        return first

    def add_nodes_array(
        self, work_weights: Sequence[float], comm_weights: Sequence[float] | None = None
    ) -> np.ndarray:
        """Append one node per entry of ``work_weights``; return their indices."""
        work = np.asarray(work_weights, dtype=np.float64)
        comm = (
            np.ones_like(work)
            if comm_weights is None
            else np.asarray(comm_weights, dtype=np.float64)
        )
        if work.shape != comm.shape or work.ndim != 1:
            raise DagError("weight arrays must be 1-D and of equal length")
        _check_weights(work, "work_weights")
        _check_weights(comm, "comm_weights")
        new_n = self._n + work.size
        self._work = _grow(self._work, new_n)
        self._comm = _grow(self._comm, new_n)
        self._work[self._n : new_n] = work
        self._comm[self._n : new_n] = comm
        first = self._n
        self._n = new_n
        return np.arange(first, new_n, dtype=_INT)

    def add_edge(self, source: int, target: int) -> None:
        """Append the edge ``source -> target`` (bounds-checked, O(1))."""
        if not 0 <= source < self._n:
            raise DagError(f"node {source} does not exist (n={self._n})")
        if not 0 <= target < self._n:
            raise DagError(f"node {target} does not exist (n={self._n})")
        if source == target:
            raise CycleError(f"self-loop on node {source} is not allowed")
        self._esrc = _grow(self._esrc, self._m + 1)
        self._edst = _grow(self._edst, self._m + 1)
        self._esrc[self._m] = source
        self._edst[self._m] = target
        self._m += 1

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Append many edges."""
        for u, v in edges:
            self.add_edge(u, v)

    def add_edges_array(
        self, sources: np.ndarray | Sequence[int], targets: np.ndarray | Sequence[int]
    ) -> None:
        """Append parallel edge arrays in one vectorized bulk operation."""
        src = np.asarray(sources, dtype=_INT)
        dst = np.asarray(targets, dtype=_INT)
        if src.shape != dst.shape or src.ndim != 1:
            raise DagError("sources and targets must be 1-D arrays of equal length")
        if src.size == 0:
            return
        _check_edge_endpoints(self._n, src, dst)
        new_m = self._m + src.size
        self._esrc = _grow(self._esrc, new_m)
        self._edst = _grow(self._edst, new_m)
        self._esrc[self._m : new_m] = src
        self._edst[self._m : new_m] = dst
        self._m = new_m

    def freeze(self, *, validate: bool = True, name: str | None = None) -> ComputationalDAG:
        """Materialise the appended nodes and edges as a :class:`ComputationalDAG`.

        With ``validate`` (default) a single vectorized duplicate-edge check
        runs over the whole edge buffer; endpoint ranges and self-loops are
        already enforced on append.
        """
        src = self._esrc[: self._m].copy()
        dst = self._edst[: self._m].copy()
        if validate:
            _check_no_duplicate_edges(self._n, src, dst)
        return ComputationalDAG._from_buffers(
            self._n,
            self._work[: self._n].copy(),
            self._comm[: self._n].copy(),
            src,
            dst,
            name=name or self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DagBuilder(name={self.name!r}, n={self._n}, m={self._m})"
