"""Node-weight models for generated DAGs.

The paper's convention (Appendix B), used by the fine- and coarse-grained
database generators, is

* ``w(v) = indeg(v) - 1`` for non-source nodes (combining ``k`` inputs costs
  ``k - 1`` elementary operations), with a floor of 1 so that pass-through
  nodes still carry a unit of work,
* ``w(v) = 1`` for source nodes (loading/initialising an input), and
* ``c(v) = 1`` for every node.

The structured workload families (:mod:`repro.dagdb.structured`) can use
alternative models from the :data:`WEIGHT_MODELS` registry — e.g. task DAGs
whose per-node work is the task's flop count rather than its fan-in.  All
models are vectorized over the CSR degree vectors and return a re-weighted
DAG through :meth:`~repro.core.dag.ComputationalDAG.with_weights`, which
shares the input's structure (CSR included); the input is left as it was.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.exceptions import ConfigurationError

__all__ = [
    "apply_paper_weight_rule",
    "apply_unit_weights",
    "apply_indegree_weights",
    "apply_weight_model",
    "WEIGHT_MODELS",
]


def apply_paper_weight_rule(dag: ComputationalDAG) -> ComputationalDAG:
    """``dag`` re-weighted by the paper's rule.

    Vectorized over the in-degree vector of the CSR backend: sources get
    ``w = 1`` and every other node ``w = max(indeg - 1, 1)``; ``c = 1``
    everywhere.
    """
    indeg = dag.in_degrees()
    work = np.where(indeg == 0, 1.0, np.maximum(indeg - 1, 1).astype(np.float64))
    return dag.with_weights(work, _unit(dag))


def apply_unit_weights(dag: ComputationalDAG) -> ComputationalDAG:
    """Unit work and communication everywhere (pure-structure scheduling)."""
    return dag.with_weights(_unit(dag), _unit(dag))


def apply_indegree_weights(dag: ComputationalDAG) -> ComputationalDAG:
    """``w = max(indeg, 1)`` (a gather/reduce cost model), ``c = 1``."""
    indeg = dag.in_degrees()
    return dag.with_weights(np.maximum(indeg, 1).astype(np.float64), _unit(dag))


def _unit(dag: ComputationalDAG) -> np.ndarray:
    return np.ones(dag.num_nodes, dtype=np.float64)


#: Registry of weight models usable by the structured generators.
WEIGHT_MODELS: dict[str, Callable[[ComputationalDAG], ComputationalDAG]] = {
    "paper": apply_paper_weight_rule,
    "unit": apply_unit_weights,
    "indegree": apply_indegree_weights,
}


def apply_weight_model(dag: ComputationalDAG, model: str = "paper") -> ComputationalDAG:
    """``dag`` re-weighted by a registered weight model, chosen by name."""
    try:
        rule = WEIGHT_MODELS[model]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown weight model {model!r}; available: {', '.join(sorted(WEIGHT_MODELS))}"
        ) from exc
    return rule(dag)
