"""Seed per-nonzero / per-op DAG generators, retained as references.

These are the pre-block-emission implementations of the fine-grained
(:mod:`repro.dagdb.fine`) and coarse-grained (:mod:`repro.dagdb.coarse`)
generators: one ``node()`` call per scalar operation, one ``add_edge`` per
dependency.  The vectorized block-emitting builders must produce *identical*
DAGs — same node ids, roles, CSR neighbour orders and weights — so these
functions back the differential tests (``tests/test_generator_diff.py``).

Do not optimise this module; its value is being the simple, obviously
correct spelling of the generators.
"""

from __future__ import annotations

from repro.core.dag import ComputationalDAG, DagBuilder
from repro.core.exceptions import DagError
from repro.dagdb.sparsegen import SparseMatrixPattern
from repro.dagdb.weights import apply_paper_weight_rule

__all__ = [
    "build_spmv_dag_reference",
    "build_iterated_spmv_dag_reference",
    "build_knn_dag_reference",
    "build_cg_dag_reference",
    "build_pagerank_coarse_reference",
    "build_cg_coarse_reference",
    "build_bicgstab_coarse_reference",
    "build_knn_coarse_reference",
    "build_label_propagation_coarse_reference",
    "build_kmeans_coarse_reference",
    "build_sparse_nn_inference_coarse_reference",
    "COARSE_GENERATORS_REFERENCE",
    "FINE_GENERATORS_REFERENCE",
]


class _FineDagBuilderRef:
    """Seed fine-grained builder: one Python call per node and per edge."""

    def __init__(self, name: str) -> None:
        self._builder = DagBuilder(name=name)
        self.roles: dict[int, str] = {}

    def node(self, role: str, preds: list[int] | None = None) -> int:
        v = self._builder.add_node()
        self.roles[v] = role
        # deduplicate while preserving order: the same value may feed an
        # operation twice (e.g. the dot product r·r squares every entry)
        for u in dict.fromkeys(preds or []):
            self._builder.add_edge(u, v)
        return v

    def matrix_sources(
        self, pattern: SparseMatrixPattern, label: str = "A"
    ) -> dict[tuple[int, int], int]:
        # the tuple view is the seed's native storage; materialise it once so
        # the seed's emission loop does not rebuild the view per row
        rows = pattern.rows
        return {
            (i, j): self.node(f"input:{label}")
            for i in range(pattern.size)
            for j in rows[i]
        }

    def dense_vector_sources(self, size: int, label: str = "u") -> dict[int, int]:
        return {i: self.node(f"input:{label}") for i in range(size)}

    def spmv(
        self,
        pattern: SparseMatrixPattern,
        matrix_nodes: dict[tuple[int, int], int],
        vector_nodes: dict[int, int],
    ) -> dict[int, int]:
        result: dict[int, int] = {}
        rows = pattern.rows
        for i in range(pattern.size):
            products = []
            for j in rows[i]:
                if j in vector_nodes:
                    products.append(
                        self.node("multiply", [matrix_nodes[(i, j)], vector_nodes[j]])
                    )
            if not products:
                continue
            if len(products) == 1:
                result[i] = products[0]
            else:
                result[i] = self.node("reduce", products)
        return result

    def dot(self, a: dict[int, int], b: dict[int, int], role: str = "dot") -> int:
        shared = sorted(set(a) & set(b))
        if not shared:
            raise DagError("dot product of vectors with disjoint support")
        products = [self.node("multiply", [a[i], b[i]]) for i in shared]
        if len(products) == 1:
            return products[0]
        return self.node(role, products)

    def elementwise(
        self,
        role: str,
        operands: list[dict[int, int]],
        scalars: list[int] | None = None,
    ) -> dict[int, int]:
        support: set[int] = set()
        for vec in operands:
            support |= set(vec)
        result: dict[int, int] = {}
        for i in sorted(support):
            preds = [vec[i] for vec in operands if i in vec]
            preds.extend(scalars or [])
            if len(preds) == 1:
                result[i] = preds[0]
            else:
                result[i] = self.node(role, preds)
        return result

    def finish(self):
        from repro.dagdb.fine import FineGrainedResult

        dag = apply_paper_weight_rule(self._builder.freeze())
        return FineGrainedResult(dag=dag, roles=self.roles)


# ---------------------------------------------------------------------- #
# fine-grained reference generators
# ---------------------------------------------------------------------- #
def build_spmv_dag_reference(pattern: SparseMatrixPattern, name: str | None = None):
    """Seed per-nonzero spelling of :func:`repro.dagdb.fine.build_spmv_dag`."""
    builder = _FineDagBuilderRef(name or f"spmv_n{pattern.size}")
    matrix = builder.matrix_sources(pattern)
    vector = builder.dense_vector_sources(pattern.size)
    builder.spmv(pattern, matrix, vector)
    return builder.finish()


def build_iterated_spmv_dag_reference(
    pattern: SparseMatrixPattern, iterations: int, name: str | None = None
):
    """Seed spelling of :func:`repro.dagdb.fine.build_iterated_spmv_dag`."""
    if iterations < 1:
        raise DagError("iterations must be >= 1")
    builder = _FineDagBuilderRef(name or f"exp_n{pattern.size}_k{iterations}")
    matrix = builder.matrix_sources(pattern)
    vector = builder.dense_vector_sources(pattern.size)
    for _ in range(iterations):
        vector = builder.spmv(pattern, matrix, vector)
        if not vector:
            break
    return builder.finish()


def build_knn_dag_reference(
    pattern: SparseMatrixPattern,
    iterations: int,
    start_index: int = 0,
    name: str | None = None,
):
    """Seed spelling of :func:`repro.dagdb.fine.build_knn_dag`."""
    if iterations < 1:
        raise DagError("iterations must be >= 1")
    if not 0 <= start_index < pattern.size:
        raise DagError("start_index out of range")
    builder = _FineDagBuilderRef(name or f"knn_n{pattern.size}_k{iterations}")
    matrix = builder.matrix_sources(pattern)
    vector = {start_index: builder.node("input:u")}
    for _ in range(iterations):
        new_vector = builder.spmv(pattern, matrix, vector)
        merged = dict(new_vector)
        for i, node in vector.items():
            merged.setdefault(i, node)
        vector = merged
        if not new_vector:
            break
    return builder.finish()


def build_cg_dag_reference(
    pattern: SparseMatrixPattern, iterations: int, name: str | None = None
):
    """Seed spelling of :func:`repro.dagdb.fine.build_cg_dag`."""
    if iterations < 1:
        raise DagError("iterations must be >= 1")
    builder = _FineDagBuilderRef(name or f"cg_n{pattern.size}_k{iterations}")
    matrix = builder.matrix_sources(pattern)
    b = builder.dense_vector_sources(pattern.size, label="b")
    r = dict(b)
    p = dict(b)
    x: dict[int, int] = {}
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


FINE_GENERATORS_REFERENCE = {
    "spmv": lambda pattern, iterations=1, **kw: build_spmv_dag_reference(pattern, **kw),
    "exp": build_iterated_spmv_dag_reference,
    "knn": build_knn_dag_reference,
    "cg": build_cg_dag_reference,
}


# ---------------------------------------------------------------------- #
# coarse-grained reference generators
# ---------------------------------------------------------------------- #
class _CoarseBuilderRef:
    """Seed coarse builder: one append per operation node / dependency."""

    def __init__(self, name: str) -> None:
        self._builder = DagBuilder(name=name)

    def source(self) -> int:
        return self._builder.add_node()

    def op(self, *preds: int) -> int:
        v = self._builder.add_node()
        for u in dict.fromkeys(preds):
            self._builder.add_edge(u, v)
        return v

    def finish(self) -> ComputationalDAG:
        return apply_paper_weight_rule(self._builder.freeze())


def _check_iterations(iterations: int) -> None:
    if iterations < 1:
        raise DagError("iterations must be >= 1")


def build_pagerank_coarse_reference(
    iterations: int, name: str | None = None
) -> ComputationalDAG:
    _check_iterations(iterations)
    b = _CoarseBuilderRef(name or f"pagerank_coarse_k{iterations}")
    matrix = b.source()
    teleport = b.source()
    rank = b.source()
    for _ in range(iterations):
        spread = b.op(matrix, rank)
        damped = b.op(spread, teleport)
        norm = b.op(damped)
        new_rank = b.op(damped, norm)
        b.op(new_rank, rank)
        rank = new_rank
    return b.finish()


def build_cg_coarse_reference(
    iterations: int, name: str | None = None
) -> ComputationalDAG:
    _check_iterations(iterations)
    b = _CoarseBuilderRef(name or f"cg_coarse_k{iterations}")
    matrix = b.source()
    rhs = b.source()
    x = b.source()
    r = b.op(rhs, x, matrix)
    p = b.op(r)
    rr = b.op(r, r)
    for _ in range(iterations):
        q = b.op(matrix, p)
        pq = b.op(p, q)
        alpha = b.op(rr, pq)
        x = b.op(x, alpha, p)
        r = b.op(r, alpha, q)
        rr_new = b.op(r, r)
        beta = b.op(rr_new, rr)
        p = b.op(r, beta, p)
        rr = rr_new
    return b.finish()


def build_bicgstab_coarse_reference(
    iterations: int, name: str | None = None
) -> ComputationalDAG:
    _check_iterations(iterations)
    b = _CoarseBuilderRef(name or f"bicgstab_coarse_k{iterations}")
    matrix = b.source()
    rhs = b.source()
    x = b.source()
    r = b.op(rhs, x, matrix)
    r_hat = b.op(r)
    rho = b.op(r_hat, r)
    p = b.op(r)
    for _ in range(iterations):
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
        rho = rho_new
    return b.finish()


def build_knn_coarse_reference(
    iterations: int, name: str | None = None
) -> ComputationalDAG:
    _check_iterations(iterations)
    b = _CoarseBuilderRef(name or f"knn_coarse_k{iterations}")
    matrix = b.source()
    frontier = b.source()
    visited = b.op(frontier)
    for _ in range(iterations):
        reached = b.op(matrix, frontier)
        frontier = b.op(reached, visited)
        visited = b.op(visited, frontier)
    return b.finish()


def build_label_propagation_coarse_reference(
    iterations: int, name: str | None = None
) -> ComputationalDAG:
    _check_iterations(iterations)
    b = _CoarseBuilderRef(name or f"labelprop_coarse_k{iterations}")
    adjacency = b.source()
    labels = b.source()
    for _ in range(iterations):
        gathered = b.op(adjacency, labels)
        counts = b.op(gathered)
        new_labels = b.op(counts, labels)
        b.op(new_labels, labels)
        labels = new_labels
    return b.finish()


def build_kmeans_coarse_reference(
    iterations: int, clusters: int = 4, name: str | None = None
) -> ComputationalDAG:
    _check_iterations(iterations)
    if clusters < 1:
        raise DagError("clusters must be >= 1")
    b = _CoarseBuilderRef(name or f"kmeans_coarse_k{iterations}_c{clusters}")
    points = b.source()
    centroids = [b.source() for _ in range(clusters)]
    for _ in range(iterations):
        distances = [b.op(points, c) for c in centroids]
        assignment = b.op(*distances)
        new_centroids = [b.op(points, assignment) for _ in range(clusters)]
        b.op(assignment)
        centroids = new_centroids
    return b.finish()


def build_sparse_nn_inference_coarse_reference(
    layers: int, name: str | None = None
) -> ComputationalDAG:
    if layers < 1:
        raise DagError("layers must be >= 1")
    b = _CoarseBuilderRef(name or f"sparse_nn_coarse_l{layers}")
    activations = b.source()
    for _ in range(layers):
        weights = b.source()
        bias = b.source()
        product = b.op(weights, activations)
        biased = b.op(product, bias)
        activations = b.op(biased)
    return b.finish()


COARSE_GENERATORS_REFERENCE = {
    "pagerank": build_pagerank_coarse_reference,
    "cg": build_cg_coarse_reference,
    "bicgstab": build_bicgstab_coarse_reference,
    "knn": build_knn_coarse_reference,
    "labelprop": build_label_propagation_coarse_reference,
    "kmeans": build_kmeans_coarse_reference,
    "sparse_nn": build_sparse_nn_inference_coarse_reference,
}
