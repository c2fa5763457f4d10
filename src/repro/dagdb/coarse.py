"""Coarse-grained computational DAG generators (paper Appendix B.1).

In the coarse-grained representation every matrix or vector produced during
a computation is a single DAG node; the edges connect an operation's inputs
to its output.  The paper obtains these DAGs by instrumenting a GraphBLAS
runtime; since that C++ runtime is not available here, this module emits the
operation-level DAGs of the same iterative algorithms directly (the DAG of
such an algorithm is fixed by the algorithm and the iteration count, not by
the runtime).

All builders use the paper's weight rule (``w = indeg - 1`` with source
weight 1, ``c = 1``).

Implementation notes
--------------------
Every generator is a small prologue plus an *iteration body* that is
structurally identical from one iteration to the next.  Instead of looping
the body ``k`` times in Python, :func:`_build_iterative` records the body
once against symbolic node handles (:class:`_Sym`), verifies that the
recursion is stationary, and then *tiles* iterations ``2..k`` as two numpy
index expressions pushed through :meth:`DagBuilder.add_edges_array` — block
emission in the same spirit as the fine-grained generators.  Node ids and
the edge buffer are byte-identical to the retained per-op reference
implementations in ``tests/oracles/generators.py`` (pinned by
``tests/test_generator_diff.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.dag import ComputationalDAG, DagBuilder
from ..core.exceptions import DagError
from .weights import apply_paper_weight_rule

__all__ = [
    "build_pagerank_coarse",
    "build_cg_coarse",
    "build_bicgstab_coarse",
    "build_knn_coarse",
    "build_label_propagation_coarse",
    "build_kmeans_coarse",
    "build_sparse_nn_inference_coarse",
    "COARSE_GENERATORS",
]

_INT = np.int64


class _OpEmitter:
    """Concrete per-op emitter used for the (tiny) prologue of a generator."""

    def __init__(self, builder: DagBuilder) -> None:
        self._builder = builder

    def source(self) -> int:
        return self._builder.add_node()

    def op(self, *preds: int) -> int:
        v = self._builder.add_node()
        # deduplicate while preserving order: the same container may feed an
        # operation twice (e.g. the dot product <r, r>)
        for u in dict.fromkeys(preds):
            self._builder.add_edge(u, v)
        return v


class _Sym:
    """A symbolic node created while recording one iteration body."""

    __slots__ = ("owner", "offset")

    def __init__(self, owner: "_BlockRecorder", offset: int) -> None:
        self.owner = owner
        self.offset = offset


class _BlockRecorder:
    """Records one iteration body as (node count, edge template).

    Edge predecessors are concrete ints (prologue nodes / statics), foreign
    :class:`_Sym` handles (previous-iteration state) or own handles
    (intra-iteration dependencies).
    """

    def __init__(self) -> None:
        self.count = 0
        self.edges: list[tuple[int | _Sym, int]] = []

    def source(self) -> _Sym:
        sym = _Sym(self, self.count)
        self.count += 1
        return sym

    def op(self, *preds: int | _Sym) -> _Sym:
        sym = _Sym(self, self.count)
        self.count += 1
        for u in dict.fromkeys(preds):
            self.edges.append((u, sym.offset))
        return sym


def _build_iterative(
    name: str,
    iterations: int,
    prologue: Callable[[_OpEmitter], tuple[tuple, tuple]],
    iteration: Callable,
) -> ComputationalDAG:
    """Prologue per-op, first iteration from the recorded template, rest tiled."""
    builder = DagBuilder(name=name)
    statics, state = prologue(_OpEmitter(builder))

    first = _BlockRecorder()
    state1 = iteration(first, statics, state)
    base = builder.num_nodes
    width = first.count
    builder.add_node_block(width)
    if first.edges:
        src = np.fromiter(
            (
                p if isinstance(p, int) else base + p.offset
                for p, _ in first.edges
            ),
            dtype=_INT,
            count=len(first.edges),
        )
        dst = np.fromiter(
            (base + d for _, d in first.edges), dtype=_INT, count=len(first.edges)
        )
        builder.add_edges_array(src, dst)

    if iterations >= 2:
        steady = _BlockRecorder()
        state2 = iteration(steady, statics, state1)
        _check_stationary(first, steady, state1, state2)
        tiles = iterations - 1
        t = np.arange(tiles, dtype=_INT)
        src_mat = np.empty((tiles, len(steady.edges)), dtype=_INT)
        dst_mat = np.empty((tiles, len(steady.edges)), dtype=_INT)
        for e, (p, d) in enumerate(steady.edges):
            dst_mat[:, e] = base + (t + 1) * width + d
            if not isinstance(p, _Sym):
                src_mat[:, e] = p
            elif p.owner is first:  # previous-iteration state
                src_mat[:, e] = base + t * width + p.offset
            else:  # intra-iteration dependency
                src_mat[:, e] = base + (t + 1) * width + p.offset
        builder.add_node_block(width * tiles)
        # row-major ravel = iteration-major, template order within: the exact
        # order the per-op reference loop appends edges in
        builder.add_edges_array(src_mat.ravel(), dst_mat.ravel())

    return apply_paper_weight_rule(builder.freeze())


def _check_stationary(
    first: _BlockRecorder, steady: _BlockRecorder, state1: tuple, state2: tuple
) -> None:
    """The recursion must repeat exactly for the tiled emission to be valid."""
    ok = steady.count == first.count and len(steady.edges) == len(first.edges)
    if ok:
        for v1, v2 in zip(state1, state2):
            if isinstance(v1, _Sym):
                ok = isinstance(v2, _Sym) and v2.offset == v1.offset
            else:
                ok = not isinstance(v2, _Sym) and v1 == v2
            if not ok:
                break
    if not ok:
        raise DagError("iteration body is not stationary; cannot tile it")


def _check_iterations(iterations: int) -> None:
    if iterations < 1:
        raise DagError("iterations must be >= 1")


def build_pagerank_coarse(iterations: int, name: str | None = None) -> ComputationalDAG:
    """Coarse DAG of the power-iteration PageRank algorithm.

    Per iteration: ``t = A^T r``, damping combination with the teleport
    vector, normalisation, and a convergence-residual computation.
    """
    _check_iterations(iterations)

    def prologue(b: _OpEmitter):
        matrix = b.source()
        teleport = b.source()
        rank = b.source()
        return (matrix, teleport), (rank,)

    def iteration(b, statics, state):
        matrix, teleport = statics
        (rank,) = state
        spread = b.op(matrix, rank)          # A^T r
        damped = b.op(spread, teleport)      # d*A^T r + (1-d)*v
        norm = b.op(damped)                  # ||r'||_1
        new_rank = b.op(damped, norm)        # normalise
        b.op(new_rank, rank)                 # residual ||r' - r||
        return (new_rank,)

    return _build_iterative(
        name or f"pagerank_coarse_k{iterations}", iterations, prologue, iteration
    )


def build_cg_coarse(iterations: int, name: str | None = None) -> ComputationalDAG:
    """Coarse DAG of the conjugate gradient method (one node per container op)."""
    _check_iterations(iterations)

    def prologue(b: _OpEmitter):
        matrix = b.source()
        rhs = b.source()
        x = b.source()
        r = b.op(rhs, x, matrix)   # r0 = b - A x0
        p = b.op(r)                # p0 = r0
        rr = b.op(r, r)            # rr = <r, r>
        return (matrix,), (x, r, p, rr)

    def iteration(b, statics, state):
        (matrix,) = statics
        x, r, p, rr = state
        q = b.op(matrix, p)
        pq = b.op(p, q)
        alpha = b.op(rr, pq)
        x = b.op(x, alpha, p)
        r = b.op(r, alpha, q)
        rr_new = b.op(r, r)
        beta = b.op(rr_new, rr)
        p = b.op(r, beta, p)
        return (x, r, p, rr_new)

    return _build_iterative(
        name or f"cg_coarse_k{iterations}", iterations, prologue, iteration
    )


def build_bicgstab_coarse(iterations: int, name: str | None = None) -> ComputationalDAG:
    """Coarse DAG of the BiCGStab method for general linear systems."""
    _check_iterations(iterations)

    def prologue(b: _OpEmitter):
        matrix = b.source()
        rhs = b.source()
        x = b.source()
        r = b.op(rhs, x, matrix)
        r_hat = b.op(r)
        rho = b.op(r_hat, r)
        p = b.op(r)
        return (matrix, r_hat), (x, r, rho, p)

    def iteration(b, statics, state):
        matrix, r_hat = statics
        x, r, rho, p = state
        v = b.op(matrix, p)
        rhv = b.op(r_hat, v)
        alpha = b.op(rho, rhv)
        s = b.op(r, alpha, v)
        t = b.op(matrix, s)
        ts = b.op(t, s)
        tt = b.op(t, t)
        omega = b.op(ts, tt)
        x = b.op(x, alpha, p, omega, s)
        r = b.op(s, omega, t)
        rho_new = b.op(r_hat, r)
        beta = b.op(rho_new, rho, alpha, omega)
        p = b.op(r, beta, p, omega, v)
        return (x, r, rho_new, p)

    return _build_iterative(
        name or f"bicgstab_coarse_k{iterations}", iterations, prologue, iteration
    )


def build_knn_coarse(iterations: int, name: str | None = None) -> ComputationalDAG:
    """Coarse DAG of algebraic k-hop reachability (repeated masked SpMV)."""
    _check_iterations(iterations)

    def prologue(b: _OpEmitter):
        matrix = b.source()
        frontier = b.source()
        visited = b.op(frontier)
        return (matrix,), (frontier, visited)

    def iteration(b, statics, state):
        (matrix,) = statics
        frontier, visited = state
        reached = b.op(matrix, frontier)
        frontier = b.op(reached, visited)    # mask out already-visited nodes
        visited = b.op(visited, frontier)    # accumulate
        return (frontier, visited)

    return _build_iterative(
        name or f"knn_coarse_k{iterations}", iterations, prologue, iteration
    )


def build_label_propagation_coarse(iterations: int, name: str | None = None) -> ComputationalDAG:
    """Coarse DAG of iterative label propagation on a graph."""
    _check_iterations(iterations)

    def prologue(b: _OpEmitter):
        adjacency = b.source()
        labels = b.source()
        return (adjacency,), (labels,)

    def iteration(b, statics, state):
        (adjacency,) = statics
        (labels,) = state
        gathered = b.op(adjacency, labels)   # gather neighbour labels
        counts = b.op(gathered)              # per-node label histogram / argmax prep
        new_labels = b.op(counts, labels)    # argmax with tie-break on old labels
        b.op(new_labels, labels)             # change count (convergence check)
        return (new_labels,)

    return _build_iterative(
        name or f"labelprop_coarse_k{iterations}", iterations, prologue, iteration
    )


def build_kmeans_coarse(
    iterations: int, clusters: int = 4, name: str | None = None
) -> ComputationalDAG:
    """Coarse DAG of Lloyd's k-means iterations with ``clusters`` centroids."""
    _check_iterations(iterations)
    if clusters < 1:
        raise DagError("clusters must be >= 1")

    def prologue(b: _OpEmitter):
        points = b.source()
        centroids = tuple(b.source() for _ in range(clusters))
        return (points,), centroids

    def iteration(b, statics, centroids):
        (points,) = statics
        distances = [b.op(points, c) for c in centroids]
        assignment = b.op(*distances)
        new_centroids = tuple(b.op(points, assignment) for _ in range(clusters))
        b.op(assignment)                     # inertia / convergence statistic
        return new_centroids

    return _build_iterative(
        name or f"kmeans_coarse_k{iterations}_c{clusters}", iterations, prologue, iteration
    )


def build_sparse_nn_inference_coarse(
    layers: int, name: str | None = None
) -> ComputationalDAG:
    """Coarse DAG of sparse neural-network inference (one SpMM + bias + ReLU per layer)."""
    if layers < 1:
        raise DagError("layers must be >= 1")

    def prologue(b: _OpEmitter):
        activations = b.source()
        return (), (activations,)

    def iteration(b, statics, state):
        (activations,) = state
        weights = b.source()
        bias = b.source()
        product = b.op(weights, activations)
        biased = b.op(product, bias)
        activations = b.op(biased)           # ReLU / thresholding
        return (activations,)

    return _build_iterative(
        name or f"sparse_nn_coarse_l{layers}", layers, prologue, iteration
    )


#: Registry of coarse-grained generators keyed by algorithm name.  Every
#: generator takes the iteration count (or layer count) as first argument.
COARSE_GENERATORS = {
    "pagerank": build_pagerank_coarse,
    "cg": build_cg_coarse,
    "bicgstab": build_bicgstab_coarse,
    "knn": build_knn_coarse,
    "labelprop": build_label_propagation_coarse,
    "kmeans": build_kmeans_coarse,
    "sparse_nn": build_sparse_nn_inference_coarse,
}
