"""Structured workload families beyond the paper's generator set.

Three additional families of computational DAGs, all emitted as whole
node/edge blocks through :class:`~repro.core.dag.DagBuilder` like the
fine-grained generators:

* **Elimination DAGs** (:func:`build_elimination_dag`) — the column-task
  DAG of sparse Cholesky/LU factorisation, derived from the *fill graph*
  of a :class:`~repro.dagdb.sparsegen.SparseMatrixPattern`: a symbolic
  elimination pass computes every column's below-diagonal structure in the
  filled matrix ``L`` and column ``j`` precedes every column ``i`` with
  ``L[i, j] != 0``.
* **FFT / butterfly DAGs** (:func:`build_fft_dag`) — ``log2(n)`` butterfly
  stages over ``n`` points; node ``(t, i)`` depends on ``(t-1, i)`` and
  ``(t-1, i XOR 2^(t-1))``.
* **Stencil sweeps** (:func:`build_stencil_dag`) — ``T`` Jacobi-style time
  steps over a 2D/3D grid; every cell depends on itself and its face
  neighbours in the previous step (5-point / 7-point star).

Every family takes a ``weight_model`` resolved through
:data:`repro.dagdb.weights.WEIGHT_MODELS` and returns a
:class:`~repro.dagdb.fine.FineGrainedResult` (DAG + per-node role labels),
so they plug into the same dataset / scheduling / validation plumbing as
the paper's families.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from ..core import kernels
from ..core.dag import DagBuilder
from ..core.exceptions import DagError
from .fine import FineGrainedResult
from .sparsegen import SparseMatrixPattern
from .weights import apply_weight_model

__all__ = [
    "amd_ordering",
    "build_elimination_dag",
    "build_amd_elimination_dag",
    "build_rcm_elimination_dag",
    "build_fft_dag",
    "build_fft4_dag",
    "build_stencil_dag",
    "build_stencil2d_dag",
    "build_stencil2d_rect_dag",
    "build_stencil3d_dag",
    "fft_dag_name",
    "rcm_ordering",
    "stencil_dag_name",
    "symbolic_fill_csr",
    "symbolic_fill_structure",
    "STRUCTURED_GENERATORS",
]

_INT = np.int64


def _finish(
    builder: DagBuilder,
    role_chunks: list[tuple[np.ndarray, str]],
    weight_model: str,
    track_roles: bool,
) -> FineGrainedResult:
    dag = apply_weight_model(builder.freeze(), weight_model)
    roles: dict[int, str] = {}
    if track_roles:
        for ids, role in role_chunks:
            roles.update(zip(ids.tolist(), repeat(role)))
    return FineGrainedResult(dag=dag, roles=roles)


# ---------------------------------------------------------------------- #
# sparse elimination DAGs
# ---------------------------------------------------------------------- #
def symbolic_fill_csr(
    pattern: SparseMatrixPattern,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Below-diagonal structure of ``L`` for ``A ∪ Aᵀ`` as pooled CSR arrays.

    Returns ``(out_indptr, out_indices, parents)`` — column ``j``'s sorted
    structure is ``out_indices[out_indptr[j]:out_indptr[j + 1]]`` and
    ``parents`` is the elimination tree (``-1`` for roots).  Computed by
    the row-merge-tree pass
    (:func:`repro.core.kernels.symbolic_fill_quotient`): Liu's
    path-compressed elimination tree plus marked row-subtree traversals,
    ``O(|A| · α + |L|)``, which is what makes million-column elimination
    DAGs constructible.
    """
    sym = pattern.symmetrized()
    return kernels.symbolic_fill_quotient(sym.indptr, sym.indices, sym.size)


def symbolic_fill_structure(
    pattern: SparseMatrixPattern,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Below-diagonal column structures of ``L`` for ``A ∪ Aᵀ``, plus the etree.

    The per-column view of :func:`symbolic_fill_csr`: returns
    ``(structures, parents)`` where ``structures[j]`` is column ``j``'s
    sorted below-diagonal fill pattern (a view into one pooled index
    array) and ``parents[j]`` is the etree parent of column ``j`` (``-1``
    for roots).  Callers that can consume the pooled CSR arrays directly
    (like :func:`build_elimination_dag`) should use
    :func:`symbolic_fill_csr` and skip the ``n`` view allocations.
    """
    out_indptr, out_indices, parents = symbolic_fill_csr(pattern)
    n = pattern.size
    structures = [
        out_indices[out_indptr[j] : out_indptr[j + 1]] for j in range(n)
    ]
    return structures, parents


def rcm_ordering(pattern: SparseMatrixPattern) -> np.ndarray:
    """Reverse Cuthill–McKee ordering of the pattern's symmetrised graph.

    Classic bandwidth-reducing BFS: components are entered at their
    minimum-degree vertex, neighbours are visited in increasing
    ``(degree, index)`` order, and the resulting Cuthill–McKee order is
    reversed.  Returns the permutation as an array of old indices in new
    order (``order[k]`` is the column eliminated ``k``-th).  Deterministic
    for a fixed pattern.
    """
    sym = pattern.symmetrized()
    n = sym.size
    degrees = sym.row_lengths()
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    # component entry points: ascending (degree, index)
    starts = np.lexsort((np.arange(n), degrees))
    for start in starts.tolist():
        if visited[start]:
            continue
        visited[start] = True
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            nbrs = sym.row_array(v)
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size:
                visited[nbrs] = True
                queue.extend(nbrs[np.lexsort((nbrs, degrees[nbrs]))].tolist())
    return np.asarray(order[::-1], dtype=_INT)


def amd_ordering(pattern: SparseMatrixPattern) -> np.ndarray:
    """Minimum-degree ordering of the pattern's symmetrised graph.

    The fill-reducing companion of :func:`rcm_ordering`: repeatedly
    eliminate a vertex of minimum degree in the *elimination graph* (the
    graph with each eliminated vertex's neighbourhood turned into a
    clique), which greedily minimises the fill each pivot introduces.  This
    is the exact minimum-degree rule — at database instance sizes the
    quotient-graph machinery of production AMD codes buys nothing, and the
    exact rule with lazy heap deletion is deterministic: ties break on the
    smallest vertex index.  Returns the permutation as an array of old
    indices in elimination order.
    """
    import heapq

    sym = pattern.symmetrized()
    n = sym.size
    adjacency: list[set[int]] = [
        set(sym.row_array(v).tolist()) - {v} for v in range(n)
    ]
    eliminated = np.zeros(n, dtype=bool)
    heap = [(len(adjacency[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        degree, v = heapq.heappop(heap)
        if eliminated[v] or degree != len(adjacency[v]):
            continue  # stale entry; the up-to-date one is still queued
        eliminated[v] = True
        order.append(v)
        neighbours = sorted(adjacency[v])
        for u in neighbours:
            adjacency[u].discard(v)
        for u in neighbours:  # clique-connect the pivot's neighbourhood
            adjacency[u].update(w for w in neighbours if w != u)
            heapq.heappush(heap, (len(adjacency[u]), u))
        adjacency[v] = set()
    return np.asarray(order, dtype=_INT)


def build_elimination_dag(
    pattern: SparseMatrixPattern,
    kind: str = "cholesky",
    name: str | None = None,
    weight_model: str = "paper",
    track_roles: bool = True,
    ordering: str = "natural",
) -> FineGrainedResult:
    """Column-task DAG of sparse Cholesky (or LU) elimination.

    One node per column of the matrix; column ``j`` has an edge to every
    column ``i > j`` whose factor entry ``L[i, j]`` is (structurally)
    nonzero — i.e. the edges of the pattern's fill graph, oriented by
    elimination order, so the DAG is acyclic by construction.  ``kind``
    selects the label only: both variants eliminate on the symmetrised
    pattern ``A ∪ Aᵀ`` (for unsymmetric LU this is the usual structural
    upper bound on the fill).  ``ordering`` selects the elimination order:
    ``"natural"`` keeps the pattern as given, ``"rcm"`` first applies the
    reverse Cuthill–McKee permutation (:func:`rcm_ordering`), which bounds
    the bandwidth and typically produces far less fill, and ``"amd"``
    applies the minimum-degree permutation (:func:`amd_ordering`), which
    greedily minimises per-pivot fill — the same matrix yields structurally
    different scheduling workloads under each order.
    """
    if kind not in ("cholesky", "lu"):
        raise DagError(f"unknown elimination kind {kind!r} (use 'cholesky' or 'lu')")
    if ordering not in ("natural", "rcm", "amd"):
        raise DagError(
            f"unknown elimination ordering {ordering!r} (use 'natural', 'rcm' or 'amd')"
        )
    if ordering == "rcm":
        pattern = pattern.permuted(rcm_ordering(pattern))
    elif ordering == "amd":
        pattern = pattern.permuted(amd_ordering(pattern))
    n = pattern.size
    out_indptr, out_indices, _ = symbolic_fill_csr(pattern)
    builder = DagBuilder(name=name or f"{kind}_n{n}")
    builder.add_node_block(n)
    if out_indices.size:
        counts = np.diff(out_indptr).astype(_INT, copy=False)
        sources = np.repeat(np.arange(n, dtype=_INT), counts)
        builder.add_edges_array(sources, out_indices)
    chunks = [(np.arange(n, dtype=_INT), f"eliminate:{kind}")]
    return _finish(builder, chunks, weight_model, track_roles)


def build_rcm_elimination_dag(
    pattern: SparseMatrixPattern,
    kind: str = "cholesky",
    name: str | None = None,
    **kwargs,
) -> FineGrainedResult:
    """Elimination DAG after reverse Cuthill–McKee reordering (registry entry)."""
    return build_elimination_dag(
        pattern,
        kind=kind,
        name=name or f"{kind}_rcm_n{pattern.size}",
        ordering="rcm",
        **kwargs,
    )


def build_amd_elimination_dag(
    pattern: SparseMatrixPattern,
    kind: str = "cholesky",
    name: str | None = None,
    **kwargs,
) -> FineGrainedResult:
    """Elimination DAG after minimum-degree reordering (registry entry)."""
    return build_elimination_dag(
        pattern,
        kind=kind,
        name=name or f"{kind}_amd_n{pattern.size}",
        ordering="amd",
        **kwargs,
    )


# ---------------------------------------------------------------------- #
# FFT / butterfly DAGs
# ---------------------------------------------------------------------- #
def build_fft_dag(
    points: int,
    name: str | None = None,
    weight_model: str = "paper",
    track_roles: bool = True,
    radix: int = 2,
) -> FineGrainedResult:
    """Butterfly DAG of an in-place radix-``r`` FFT over ``points`` inputs.

    ``log_r(points)`` stages of ``points`` butterfly nodes each.  With
    radix 2, the node for index ``i`` of stage ``t`` reads index ``i`` and
    its butterfly partner ``i XOR 2^(t-1)`` of the previous stage; with
    radix 4 it reads the four lanes sharing every base-4 digit of ``i``
    except digit ``t-1`` — half the stage count at four-way fan-in, a
    structurally different (wider, shallower) scheduling workload.
    """
    stages = _fft_stages(points, radix)
    builder = DagBuilder(name=name or fft_dag_name(points, radix))
    builder.add_node_block(points * (stages + 1))
    for sources, targets in _fft_stage_blocks(points, radix, stages):
        builder.add_edges_array(sources, targets)
    lanes = np.arange(points, dtype=_INT)
    chunks = [
        (lanes, "input:x"),
        (points + np.arange(points * stages, dtype=_INT), "butterfly"),
    ]
    return _finish(builder, chunks, weight_model, track_roles)


def fft_dag_name(points: int, radix: int = 2) -> str:
    """The default DAG name of :func:`build_fft_dag` for these parameters."""
    return f"fft{radix if radix != 2 else ''}_n{points}"


def _fft_stages(points: int, radix: int) -> int:
    """Validate FFT parameters; return the stage count ``log_radix(points)``."""
    if radix not in (2, 4):
        raise DagError(f"radix must be 2 or 4, got {radix}")
    stages = 0
    size = 1
    while size < points:
        size *= radix
        stages += 1
    if points < radix or size != points:
        raise DagError(
            f"points must be a power of {radix} >= {radix}, got {points}"
        )
    return stages


def _fft_stage_blocks(points: int, radix: int, stages: int):
    """Yield the butterfly edge blocks in canonical emission order.

    Per stage the own-lane block first, then the partners in ascending
    digit order — the radix-2 case reproduces the historical
    ``(previous, partner)`` order.
    """
    lanes = np.arange(points, dtype=_INT)
    for t in range(1, stages + 1):
        current = t * points + lanes
        stride = radix ** (t - 1)
        yield (t - 1) * points + lanes, current
        digit = (lanes // stride) % radix
        base = lanes - digit * stride
        for d in range(1, radix):
            partner = base + ((digit + d) % radix) * stride
            yield (t - 1) * points + partner, current


def build_fft4_dag(points: int, name: str | None = None, **kwargs) -> FineGrainedResult:
    """Radix-4 butterfly DAG (registry entry; ``points`` must be a power of 4)."""
    return build_fft_dag(points, name=name, radix=4, **kwargs)


# ---------------------------------------------------------------------- #
# stencil sweeps
# ---------------------------------------------------------------------- #
def build_stencil_dag(
    shape: tuple[int, ...],
    steps: int,
    name: str | None = None,
    weight_model: str = "paper",
    track_roles: bool = True,
) -> FineGrainedResult:
    """Space-time DAG of ``steps`` star-stencil sweeps over a 2D/3D grid.

    Cell ``x`` of time layer ``t`` depends on itself and its face
    neighbours in layer ``t - 1`` (5-point stencil in 2D, 7-point in 3D).
    Layer 0 holds the grid's initial values as source nodes.
    """
    shape = _check_stencil_params(shape, steps)
    cells = math.prod(shape)
    src0, dst0 = _stencil_template(shape)
    flat = np.arange(cells, dtype=_INT)

    builder = DagBuilder(name=name or stencil_dag_name(shape, steps))
    builder.add_node_block(cells * (steps + 1))
    t = np.arange(steps, dtype=_INT)[:, None]
    sources = (t * cells + src0[None, :]).ravel()
    targets = ((t + 1) * cells + dst0[None, :]).ravel()
    builder.add_edges_array(sources, targets)
    chunks = [
        (flat, "input:grid"),
        (cells + np.arange(cells * steps, dtype=_INT), "stencil"),
    ]
    return _finish(builder, chunks, weight_model, track_roles)


def stencil_dag_name(shape: tuple[int, ...], steps: int) -> str:
    """The default DAG name of :func:`build_stencil_dag` for these parameters."""
    return f"stencil{len(shape)}d_{'x'.join(map(str, shape))}_t{steps}"


def _check_stencil_params(shape: tuple[int, ...], steps: int) -> tuple[int, ...]:
    """Validate stencil parameters; return the normalised shape tuple."""
    shape = tuple(int(s) for s in shape)
    if len(shape) not in (2, 3):
        raise DagError(f"stencil grids must be 2D or 3D, got shape {shape}")
    if any(s < 1 for s in shape):
        raise DagError(f"grid extents must be positive, got {shape}")
    if steps < 1:
        raise DagError("steps must be >= 1")
    return shape


def _stencil_template(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """One layer's ``(relative source cell, destination cell)`` edge template.

    The self edge first, then -1/+1 along each axis.
    """
    cells = math.prod(shape)
    coords = np.indices(shape).reshape(len(shape), cells)
    flat = np.arange(cells, dtype=_INT)
    template_src = [flat]
    template_dst = [flat]
    for axis in range(len(shape)):
        for delta in (-1, +1):
            moved = coords[axis] + delta
            valid = (moved >= 0) & (moved < shape[axis])
            neighbour = coords.copy()
            neighbour[axis] = moved
            template_src.append(
                np.ravel_multi_index(
                    tuple(neighbour[:, valid]), shape
                ).astype(_INT)
            )
            template_dst.append(flat[valid])
    return np.concatenate(template_src), np.concatenate(template_dst)


def build_stencil2d_dag(
    side: int, steps: int, name: str | None = None, **kwargs
) -> FineGrainedResult:
    """Square 2D stencil sweep (5-point star) of ``side x side`` cells."""
    return build_stencil_dag((side, side), steps, name=name, **kwargs)


def build_stencil2d_rect_dag(
    width: int, height: int, steps: int, name: str | None = None, **kwargs
) -> FineGrainedResult:
    """Non-square 2D stencil sweep (5-point star) of ``width x height`` cells.

    Skewed aspect ratios change the surface-to-volume ratio of good grid
    partitions, so the same cell count schedules very differently from the
    square sweep — a cheap source of scenario diversity.
    """
    return build_stencil_dag((width, height), steps, name=name, **kwargs)


def build_stencil3d_dag(
    side: int, steps: int, name: str | None = None, **kwargs
) -> FineGrainedResult:
    """Cubic 3D stencil sweep (7-point star) of ``side^3`` cells."""
    return build_stencil_dag((side, side, side), steps, name=name, **kwargs)


#: Registry of the structured generator families (scheduler-facing names).
STRUCTURED_GENERATORS = {
    "cholesky": build_elimination_dag,
    "cholesky_rcm": build_rcm_elimination_dag,
    "cholesky_amd": build_amd_elimination_dag,
    "fft": build_fft_dag,
    "fft4": build_fft4_dag,
    "stencil2d": build_stencil2d_dag,
    "stencil2d_rect": build_stencil2d_rect_dag,
    "stencil3d": build_stencil3d_dag,
}
