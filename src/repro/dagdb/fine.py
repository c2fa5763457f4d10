"""Fine-grained computational DAG generators (paper Appendix B.2).

In the fine-grained representation every nonzero scalar of every matrix and
vector is (the output of) a separate DAG node, and every elementary
operation (a scalar multiplication, an accumulation, a division, ...) is a
node as well.  The paper's generator supports four concrete algorithms, all
parameterised by a square sparse matrix pattern ``A``:

* ``spmv``  — one sparse matrix / dense vector product ``y = A·u``,
* ``exp``   — the iterated product ``A^k · u`` (``k`` chained SpMVs),
* ``cg``    — ``k`` iterations of the conjugate gradient method,
* ``knn``   — ``k`` iterations of SpMV starting from a vector with a single
  nonzero entry (breadth-first "k-hop" reachability in algebraic form).

Node weights follow the paper's rule (``w = indeg - 1`` for interior nodes,
``1`` for sources; ``c = 1`` everywhere) via
:func:`repro.dagdb.weights.apply_paper_weight_rule`.

Every generator returns a :class:`FineGrainedResult` carrying the DAG plus a
role label per node (``"input"``, ``"multiply"``, ``"reduce"``, ...), which
the examples and tests use to sanity-check the generated structure.

Implementation notes
--------------------
The builders emit whole *edge blocks* through
:meth:`repro.core.dag.DagBuilder.add_edges_array`: one SpMV application is
a handful of numpy passes over the pattern's CSR arrays instead of one
``node()`` call per nonzero.  Node ids, role labels and CSR neighbour
orders are *identical* to the retained per-nonzero reference
(``tests/oracles/generators.py``) — block emission reorders only the internal
edge buffer, and only in ways that preserve the per-source and per-target
relative order the CSR views are built from.  The differential tests in
``tests/test_generator_diff.py`` pin this equivalence.

Intermediate sparse vectors are ``(entry index, node id)`` array pairs
(:class:`_SparseVec`); ``track_roles=False`` skips the per-node role dict
for dataset-scale generation where only the DAG is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from ..core.dag import ComputationalDAG, DagBuilder
from ..core.exceptions import DagError
from .sparsegen import SparseMatrixPattern
from .weights import apply_paper_weight_rule

__all__ = [
    "FineGrainedResult",
    "build_spmv_dag",
    "build_iterated_spmv_dag",
    "build_knn_dag",
    "build_cg_dag",
    "FINE_GENERATORS",
]

_INT = np.int64


@dataclass
class FineGrainedResult:
    """A generated fine-grained DAG together with per-node role labels."""

    dag: ComputationalDAG
    roles: dict[int, str] = field(default_factory=dict)

    def nodes_with_role(self, role: str) -> list[int]:
        """All nodes carrying the given role label."""
        return [v for v, r in self.roles.items() if r == role]


@dataclass
class _SparseVec:
    """A sparse vector of DAG nodes: sorted entry indices + parallel node ids."""

    idx: np.ndarray
    nodes: np.ndarray

    def __bool__(self) -> bool:
        return self.idx.size > 0

    @property
    def support(self) -> np.ndarray:
        return self.idx


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    out = np.zeros(values.size, dtype=_INT)
    np.cumsum(values[:-1], out=out[1:])
    return out


class _FineDagBuilder:
    """Incrementally builds a fine-grained DAG, emitting whole node/edge blocks.

    Nodes and edges are appended as numpy blocks into a
    :class:`~repro.core.dag.DagBuilder` and frozen into the CSR-backed
    :class:`ComputationalDAG` once the generator is done.
    """

    def __init__(self, name: str, track_roles: bool = True) -> None:
        self._builder = DagBuilder(name=name)
        self._track_roles = track_roles
        self._role_chunks: list[tuple[object, str]] = []

    # ------------------------------------------------------------------ #
    # node allocation + role bookkeeping
    # ------------------------------------------------------------------ #
    def _new_block(self, count: int) -> int:
        """Append ``count`` unit-weight nodes; return the first id."""
        return self._builder.add_node_block(count)

    def _register_roles(self, ids, role: str) -> None:
        if self._track_roles:
            self._role_chunks.append((ids, role))

    def node(self, role: str, preds: list[int] | None = None) -> int:
        """Append a single node (used for the O(1)-per-iteration scalar ops)."""
        v = self._builder.add_node()
        self._register_roles((v,), role)
        # deduplicate while preserving order: the same value may feed an
        # operation twice (e.g. the dot product r·r squares every entry)
        for u in dict.fromkeys(preds or []):
            self._builder.add_edge(u, v)
        return v

    # ------------------------------------------------------------------ #
    # block-emitting primitives
    # ------------------------------------------------------------------ #
    def matrix_sources(
        self, pattern: SparseMatrixPattern, label: str = "A"
    ) -> np.ndarray:
        """One source node per nonzero; ids parallel to ``pattern.indices``."""
        first = self._new_block(pattern.nnz)
        ids = np.arange(first, first + pattern.nnz, dtype=_INT)
        self._register_roles(ids, f"input:{label}")
        return ids

    def dense_vector_sources(self, size: int, label: str = "u") -> _SparseVec:
        """One source node per entry of a dense vector."""
        first = self._new_block(size)
        ids = np.arange(first, first + size, dtype=_INT)
        self._register_roles(ids, f"input:{label}")
        return _SparseVec(idx=np.arange(size, dtype=_INT), nodes=ids)

    def spmv(
        self,
        pattern: SparseMatrixPattern,
        matrix_nodes: np.ndarray,
        vector: _SparseVec,
    ) -> _SparseVec:
        """Fine-grained ``y = A · u``; returns the nodes of the (sparse) result.

        A multiplication node is created for every matrix nonzero ``(i, j)``
        whose vector operand ``u[j]`` exists (is itself nonzero); rows with a
        single product skip the accumulation node.
        """
        n = pattern.size
        lookup = np.full(n, -1, dtype=_INT)
        lookup[vector.idx] = vector.nodes
        operand = lookup[pattern.indices]
        kept = np.flatnonzero(operand >= 0)
        if kept.size == 0:
            return _SparseVec(
                idx=np.empty(0, dtype=_INT), nodes=np.empty(0, dtype=_INT)
            )
        kept_rows = pattern.row_ids()[kept]
        m_nodes = matrix_nodes[kept]
        u_nodes = operand[kept]

        counts = np.bincount(kept_rows, minlength=n)  # products per row
        has_reduce = counts >= 2
        row_alloc = counts + has_reduce  # ids consumed per row
        base = self._new_block(int(kept.size + has_reduce.sum()))
        row_base = base + _exclusive_cumsum(row_alloc)

        # products of one row get consecutive ids starting at the row's base
        intra = np.arange(kept.size, dtype=_INT) - _exclusive_cumsum(counts)[kept_rows]
        product_ids = row_base[kept_rows] + intra
        self._register_roles(product_ids, "multiply")

        # edge blocks; per-product pred order stays [matrix, vector] and every
        # per-source successor order stays row-major, exactly like the
        # per-nonzero reference emission
        self._builder.add_edges_array(m_nodes, product_ids)
        self._builder.add_edges_array(u_nodes, product_ids)

        if has_reduce.any():
            reduce_ids = (row_base + counts)[has_reduce]
            self._register_roles(reduce_ids, "reduce")
            in_reduce_row = has_reduce[kept_rows]
            self._builder.add_edges_array(
                product_ids[in_reduce_row],
                np.repeat(reduce_ids, counts[has_reduce]),
            )

        out_rows = np.flatnonzero(counts > 0)
        out_nodes = row_base[out_rows] + np.where(
            counts[out_rows] == 1, 0, counts[out_rows]
        )
        return _SparseVec(idx=out_rows.astype(_INT), nodes=out_nodes)

    def dot(self, a: _SparseVec, b: _SparseVec, role: str = "dot") -> int:
        """Fine-grained dot product of two sparse vectors (must overlap)."""
        if a is b:
            shared_a = shared_b = np.arange(a.idx.size, dtype=_INT)
        else:
            _, shared_a, shared_b = np.intersect1d(
                a.idx, b.idx, assume_unique=True, return_indices=True
            )
        if shared_a.size == 0:
            raise DagError("dot product of vectors with disjoint support")
        a_nodes = a.nodes[shared_a]
        b_nodes = b.nodes[shared_b]
        k = int(shared_a.size)
        base = self._new_block(k + (1 if k > 1 else 0))
        product_ids = np.arange(base, base + k, dtype=_INT)
        self._register_roles(product_ids, "multiply")
        self._builder.add_edges_array(a_nodes, product_ids)
        # replicate the reference's per-node pred dedup (r·r squares entries)
        distinct = b_nodes != a_nodes
        if distinct.any():
            self._builder.add_edges_array(b_nodes[distinct], product_ids[distinct])
        if k == 1:
            return int(product_ids[0])
        reduce_id = base + k
        self._register_roles((reduce_id,), role)
        self._builder.add_edges_array(product_ids, np.full(k, reduce_id, dtype=_INT))
        return int(reduce_id)

    def elementwise(
        self,
        role: str,
        operands: list[_SparseVec],
        scalars: list[int] | None = None,
    ) -> _SparseVec:
        """Per-entry combination of sparse vectors (union of supports) plus scalars."""
        scalars = scalars or []
        support = np.unique(np.concatenate([vec.idx for vec in operands]))
        if support.size == 0:
            return _SparseVec(idx=support, nodes=support.copy())
        size = int(support.max()) + 1
        member_nodes = []
        pred_count = np.full(support.size, len(scalars), dtype=_INT)
        for vec in operands:
            lookup = np.full(size, -1, dtype=_INT)
            lookup[vec.idx] = vec.nodes
            nodes = lookup[support]
            member_nodes.append(nodes)
            pred_count += nodes >= 0
        combine = pred_count >= 2
        base = self._new_block(int(combine.sum()))
        out_ids = np.empty(support.size, dtype=_INT)
        out_ids[combine] = base + np.arange(int(combine.sum()), dtype=_INT)
        self._register_roles(out_ids[combine].copy(), role)
        # operand blocks in operand order, then scalar blocks: per-target pred
        # order matches the reference's [operands..., scalars...] emission
        for nodes in member_nodes:
            present = combine & (nodes >= 0)
            self._builder.add_edges_array(nodes[present], out_ids[present])
        for s in scalars:
            self._builder.add_edges_array(
                np.full(int(combine.sum()), s, dtype=_INT), out_ids[combine]
            )
        # pass-through entries re-expose their single operand node
        if not combine.all():
            single = ~combine
            for nodes in member_nodes:
                take = single & (nodes >= 0)
                out_ids[take] = nodes[take]
        return _SparseVec(idx=support, nodes=out_ids)

    def finish(self) -> FineGrainedResult:
        dag = apply_paper_weight_rule(self._builder.freeze())
        roles: dict[int, str] = {}
        for ids, role in self._role_chunks:
            chunk = ids.tolist() if isinstance(ids, np.ndarray) else ids
            roles.update(zip(chunk, repeat(role)))
        return FineGrainedResult(dag=dag, roles=roles)


# ---------------------------------------------------------------------- #
# public generators
# ---------------------------------------------------------------------- #
def build_spmv_dag(
    pattern: SparseMatrixPattern, name: str | None = None, track_roles: bool = True
) -> FineGrainedResult:
    """Fine-grained DAG of a single sparse matrix / dense vector product."""
    builder = _FineDagBuilder(name or f"spmv_n{pattern.size}", track_roles)
    matrix = builder.matrix_sources(pattern)
    vector = builder.dense_vector_sources(pattern.size)
    builder.spmv(pattern, matrix, vector)
    return builder.finish()


def build_iterated_spmv_dag(
    pattern: SparseMatrixPattern,
    iterations: int,
    name: str | None = None,
    track_roles: bool = True,
) -> FineGrainedResult:
    """Fine-grained DAG of ``A^k · u`` (the paper's ``exp`` generator)."""
    if iterations < 1:
        raise DagError("iterations must be >= 1")
    builder = _FineDagBuilder(name or f"exp_n{pattern.size}_k{iterations}", track_roles)
    matrix = builder.matrix_sources(pattern)
    vector = builder.dense_vector_sources(pattern.size)
    for _ in range(iterations):
        vector = builder.spmv(pattern, matrix, vector)
        if not vector:
            break  # the product vanished; nothing left to compute
    return builder.finish()


def build_knn_dag(
    pattern: SparseMatrixPattern,
    iterations: int,
    start_index: int = 0,
    name: str | None = None,
    track_roles: bool = True,
) -> FineGrainedResult:
    """Fine-grained DAG of the algebraic ``k``-hop reachability (``knn``).

    The input vector has a single nonzero entry at ``start_index``; every
    iteration multiplies by ``A`` and the support of the vector grows along
    the reachable rows.
    """
    if iterations < 1:
        raise DagError("iterations must be >= 1")
    if not 0 <= start_index < pattern.size:
        raise DagError("start_index out of range")
    builder = _FineDagBuilder(name or f"knn_n{pattern.size}_k{iterations}", track_roles)
    matrix = builder.matrix_sources(pattern)
    start = builder.node("input:u")
    vector = _SparseVec(
        idx=np.array([start_index], dtype=_INT), nodes=np.array([start], dtype=_INT)
    )
    for _ in range(iterations):
        new_vector = builder.spmv(pattern, matrix, vector)
        # reached entries stay reachable: merge old support into the new one
        keep_old = ~np.isin(vector.idx, new_vector.idx, assume_unique=True)
        idx = np.concatenate((new_vector.idx, vector.idx[keep_old]))
        nodes = np.concatenate((new_vector.nodes, vector.nodes[keep_old]))
        order = np.argsort(idx)
        vector = _SparseVec(idx=idx[order], nodes=nodes[order])
        if not new_vector:
            break
    return builder.finish()


def build_cg_dag(
    pattern: SparseMatrixPattern,
    iterations: int,
    name: str | None = None,
    track_roles: bool = True,
) -> FineGrainedResult:
    """Fine-grained DAG of ``k`` iterations of the conjugate gradient method.

    Per iteration (standard CG on ``A x = b`` with ``x_0 = 0``):

    1. ``q = A p``
    2. ``alpha = rr / (p · q)``
    3. ``x += alpha p`` and ``r -= alpha q``
    4. ``rr_new = r · r`` ; ``beta = rr_new / rr``
    5. ``p = r + beta p``
    """
    if iterations < 1:
        raise DagError("iterations must be >= 1")
    builder = _FineDagBuilder(name or f"cg_n{pattern.size}_k{iterations}", track_roles)
    matrix = builder.matrix_sources(pattern)
    b = builder.dense_vector_sources(pattern.size, label="b")
    r = b  # r0 = b (x0 = 0)
    p = b  # p0 = r0
    x = _SparseVec(idx=np.empty(0, dtype=_INT), nodes=np.empty(0, dtype=_INT))
    rr = builder.dot(r, r, role="reduce:rr")
    for _ in range(iterations):
        q = builder.spmv(pattern, matrix, p)
        if not q:
            break
        pq = builder.dot(p, q, role="reduce:pq")
        alpha = builder.node("scalar:alpha", [rr, pq])
        x = builder.elementwise("axpy:x", [x, p], scalars=[alpha])
        r = builder.elementwise("axpy:r", [r, q], scalars=[alpha])
        rr_new = builder.dot(r, r, role="reduce:rr")
        beta = builder.node("scalar:beta", [rr_new, rr])
        p = builder.elementwise("axpy:p", [r, p], scalars=[beta])
        rr = rr_new
    return builder.finish()


#: Registry of the four fine-grained generators keyed by the paper's names.
FINE_GENERATORS = {
    "spmv": lambda pattern, iterations=1, **kw: build_spmv_dag(pattern, **kw),
    "exp": build_iterated_spmv_dag,
    "knn": build_knn_dag,
    "cg": build_cg_dag,
}
