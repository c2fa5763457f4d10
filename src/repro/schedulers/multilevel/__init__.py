"""Multilevel (coarsen-solve-refine) scheduling (paper §4.5)."""

from .coarsen import (
    CoarseningSequence,
    ContractionRecord,
    QuotientDag,
    coarsen_dag,
)
from .refine import (
    project_arrays,
    project_to_original,
    restrict_arrays,
    restrict_to_quotient,
    unchanged_nodes,
)
from .scheduler import MultilevelScheduler

__all__ = [
    "CoarseningSequence",
    "ContractionRecord",
    "MultilevelScheduler",
    "QuotientDag",
    "coarsen_dag",
    "project_arrays",
    "project_to_original",
    "restrict_arrays",
    "restrict_to_quotient",
    "unchanged_nodes",
]
