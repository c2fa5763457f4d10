"""Thin MILP backend used by all ILP-based scheduling methods.

The paper uses the CBC solver through its Python interface; this repository
substitutes ``scipy.optimize.milp`` (the HiGHS solver shipped with SciPy),
hidden behind :class:`MilpProblem` so the formulations do not depend on the
solver API.  HiGHS ships with SciPy, so the ILP stages need no solver
installed apart from the hard dependencies.

:class:`MilpProblem` is a small incremental model builder: variables are
added one by one (binary or continuous, with objective coefficients), linear
constraints are stored as sparse triples, and :meth:`solve` assembles the
sparse constraint matrix and calls HiGHS with a time limit.
:meth:`MilpProblem.key` digests everything HiGHS would receive, so that a
caller can reuse the result of an identical model it solved before.

Only :meth:`MilpProblem.solve` and :func:`milp` import ``scipy.optimize``
and ``scipy.sparse``, so a process that never solves a MILP (the
heuristic pipeline, multilevel without ILP, the baselines) never loads
them; the first solve of a process pays for loading them instead.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np
import scipy  # noqa: F401  (the hard dependency fails here, not at the first solve)

from ...core.exceptions import SolverError

__all__ = [
    "INFEASIBLE",
    "NODE_LIMIT",
    "OPTIMAL",
    "OTHER",
    "TIME_LIMIT",
    "MilpProblem",
    "MilpSolution",
]

#: why a MILP solve stopped (:attr:`MilpSolution.stop`): proven optimal,
#: branch-and-bound node limit, wall-clock limit, proven infeasible, or any
#: other HiGHS outcome
OPTIMAL, NODE_LIMIT, TIME_LIMIT, INFEASIBLE, OTHER = (
    "optimal", "node_limit", "time_limit", "infeasible", "other"
)

#: scipy appends HiGHS's own model status to every message
_HIGHS_MODEL_STATUS = re.compile(r"\(HiGHS Status (\d+):")
_HIGHS_INFEASIBLE = 8
_HIGHS_SOLUTION_LIMIT = 16


@dataclass
class MilpSolution:
    """Result of a MILP solve."""

    values: np.ndarray
    objective: float
    status: int
    message: str

    @property
    def feasible(self) -> bool:
        """Whether a feasible (not necessarily optimal) solution was found."""
        return self.values is not None and self.values.size > 0

    @property
    def stop(self) -> str:
        """Why the solve stopped: :data:`OPTIMAL`, :data:`NODE_LIMIT`,
        :data:`TIME_LIMIT`, :data:`INFEASIBLE` or :data:`OTHER`.

        Read from scipy's ``status`` and the HiGHS model status its
        ``message`` names.  scipy 1.17 reports a node-limit stop (HiGHS
        model status 16, "Solution limit reached") as status 4, not as the
        status 1 of a time limit; no iteration limit is ever set, so status
        1 is always the clock.  Only a :data:`TIME_LIMIT` result depends on
        the clock: every other outcome is a function of the model and the
        work limits alone.
        """
        if self.status == 0:
            return OPTIMAL
        if self.status == 1:
            return TIME_LIMIT
        match = _HIGHS_MODEL_STATUS.search(self.message)
        model_status = int(match.group(1)) if match else None
        if self.status == 2 and model_status == _HIGHS_INFEASIBLE:
            return INFEASIBLE
        if self.status == 4 and model_status == _HIGHS_SOLUTION_LIMIT:
            return NODE_LIMIT
        return OTHER

    def value(self, index: int) -> float:
        """Value of variable ``index``."""
        return float(self.values[index])

    def is_one(self, index: int, threshold: float = 0.5) -> bool:
        """Whether binary variable ``index`` is set in the solution."""
        return self.values[index] > threshold


class MilpProblem:
    """Incremental mixed-integer linear program builder (minimisation)."""

    def __init__(self, name: str = "milp") -> None:
        self.name = name
        self._objective: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._integrality: list[int] = []
        # constraints as sparse triples
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._row_lower: list[float] = []
        self._row_upper: list[float] = []

    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        """Number of variables added so far."""
        return len(self._objective)

    @property
    def num_constraints(self) -> int:
        """Number of linear constraints added so far."""
        return len(self._row_lower)

    def add_binary(self, objective: float = 0.0) -> int:
        """Add a binary variable; returns its index."""
        return self._add_var(0.0, 1.0, objective, integer=True)

    def add_continuous(
        self, lower: float = 0.0, upper: float = np.inf, objective: float = 0.0
    ) -> int:
        """Add a continuous variable; returns its index."""
        return self._add_var(lower, upper, objective, integer=False)

    def add_binary_block(self, count: int) -> int:
        """Append ``count`` binary variables at once; returns the first index.

        Equivalent to ``count`` calls of :meth:`add_binary` — the batched
        model builders allocate whole variable families with one call and
        address them by index arithmetic.
        """
        first = self.num_variables
        self._objective.extend([0.0] * count)
        self._lower.extend([0.0] * count)
        self._upper.extend([1.0] * count)
        self._integrality.extend([1] * count)
        return first

    def add_continuous_block(
        self,
        count: int,
        lower: float = 0.0,
        upper: float = np.inf,
        objective: float = 0.0,
    ) -> int:
        """Append ``count`` identical continuous variables; returns the first index."""
        first = self.num_variables
        self._objective.extend([float(objective)] * count)
        self._lower.extend([float(lower)] * count)
        self._upper.extend([float(upper)] * count)
        self._integrality.extend([0] * count)
        return first

    def add_rows(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        lower: np.ndarray | float,
        upper: np.ndarray | float,
        num_rows: int | None = None,
    ) -> None:
        """Append a whole block of constraints from parallel coefficient arrays.

        ``rows`` are block-local (``0 .. num_rows - 1``); ``lower``/``upper``
        are scalars or arrays of length ``num_rows``.  One call replaces a
        Python loop of :meth:`add_constraint` invocations — the coefficient
        triples are validated and appended vectorized.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.size and num_rows in (None, 0):
            return
        if num_rows is None:
            num_rows = int(rows.max()) + 1
        if rows.size:
            if rows.min() < 0 or rows.max() >= num_rows:
                raise SolverError("constraint block references a row out of range")
            if cols.min() < 0 or cols.max() >= self.num_variables:
                raise SolverError("constraint block references an unknown variable")
        base = self.num_constraints
        self._rows.extend((rows + base).tolist())
        self._cols.extend(cols.tolist())
        self._vals.extend(vals.tolist())
        lower_arr = np.broadcast_to(np.asarray(lower, dtype=np.float64), (num_rows,))
        upper_arr = np.broadcast_to(np.asarray(upper, dtype=np.float64), (num_rows,))
        self._row_lower.extend(lower_arr.tolist())
        self._row_upper.extend(upper_arr.tolist())

    def _add_var(self, lower: float, upper: float, objective: float, integer: bool) -> int:
        self._objective.append(float(objective))
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._integrality.append(1 if integer else 0)
        return len(self._objective) - 1

    def add_constraint(
        self,
        coefficients: dict[int, float],
        lower: float = -np.inf,
        upper: float = np.inf,
    ) -> None:
        """Add the constraint ``lower <= Σ coeff_i x_i <= upper``."""
        if not coefficients:
            raise SolverError("constraint must reference at least one variable")
        row = self.num_constraints
        for col, value in coefficients.items():
            if not 0 <= col < self.num_variables:
                raise SolverError(f"constraint references unknown variable {col}")
            self._rows.append(row)
            self._cols.append(col)
            self._vals.append(float(value))
        self._row_lower.append(float(lower))
        self._row_upper.append(float(upper))

    def add_le(self, coefficients: dict[int, float], upper: float) -> None:
        """Add ``Σ coeff_i x_i <= upper``."""
        self.add_constraint(coefficients, -np.inf, upper)

    def add_ge(self, coefficients: dict[int, float], lower: float) -> None:
        """Add ``Σ coeff_i x_i >= lower``."""
        self.add_constraint(coefficients, lower, np.inf)

    def add_eq(self, coefficients: dict[int, float], value: float) -> None:
        """Add ``Σ coeff_i x_i == value``."""
        self.add_constraint(coefficients, value, value)

    # ------------------------------------------------------------------ #
    def key(self, node_limit: int | None = None, mip_rel_gap: float = 0.0) -> bytes:
        """Digest of everything :meth:`solve` hands HiGHS, minus the clock.

        Covers the objective, the variable bounds, the integrality flags,
        the constraint triples and the row bounds, each prefixed with its
        length, plus the work limits as :meth:`solve` passes them.  The
        model name and the time limit are left out.  HiGHS is
        deterministic on identical input, so two models with equal keys
        solved without hitting a time limit give the same solution.
        """
        hasher = hashlib.sha256(b"repro-milp-v1")
        for values, dtype in (
            (self._objective, np.float64),
            (self._lower, np.float64),
            (self._upper, np.float64),
            (self._integrality, np.int64),
            (self._rows, np.int64),
            (self._cols, np.int64),
            (self._vals, np.float64),
            (self._row_lower, np.float64),
            (self._row_upper, np.float64),
        ):
            hasher.update(np.int64(len(values)).tobytes())
            hasher.update(np.asarray(values, dtype=dtype).tobytes())
        limits = _options(None, mip_rel_gap, node_limit)
        hasher.update(repr(sorted(limits.items())).encode())
        return hasher.digest()

    def solve(
        self,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
        node_limit: int | None = None,
    ) -> MilpSolution:
        """Solve the model with HiGHS; returns a (possibly infeasible) solution object.

        A ``time_limit`` of ``None`` lets the solver run to optimality.  When
        no feasible point is found, :attr:`MilpSolution.feasible` is false.
        ``node_limit`` caps the branch-and-bound node count — unlike the
        wall-clock limit it is *deterministic*, so two runs with the same
        node limit stop at the same incumbent regardless of machine load.
        """
        if self.num_variables == 0:
            return MilpSolution(np.zeros(0), 0.0, 0, "empty model")
        from scipy.optimize import Bounds, LinearConstraint
        from scipy.sparse import csr_matrix

        c = np.asarray(self._objective, dtype=np.float64)
        bounds = Bounds(np.asarray(self._lower), np.asarray(self._upper))
        integrality = np.asarray(self._integrality, dtype=np.int64)
        constraints = None
        if self.num_constraints:
            matrix = csr_matrix(
                (self._vals, (self._rows, self._cols)),
                shape=(self.num_constraints, self.num_variables),
            )
            constraints = LinearConstraint(
                matrix, np.asarray(self._row_lower), np.asarray(self._row_upper)
            )
        result = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=_options(time_limit, mip_rel_gap, node_limit),
        )
        values = result.x if result.x is not None else np.zeros(0)
        objective = float(result.fun) if result.fun is not None else float("inf")
        return MilpSolution(
            values=np.asarray(values),
            objective=objective,
            status=int(result.status),
            message=str(result.message),
        )


def milp(**kwargs):
    """``scipy.optimize.milp(**kwargs)``, imported at the first call.

    :meth:`MilpProblem.solve` calls HiGHS through this module-level name
    only, so a test can patch the solver call in one place.
    """
    from scipy.optimize import milp as highs_milp

    return highs_milp(**kwargs)


def _options(
    time_limit: float | None, mip_rel_gap: float, node_limit: int | None
) -> dict[str, float | bool]:
    """The HiGHS options of one :meth:`MilpProblem.solve` call."""
    options: dict[str, float | bool] = {"disp": False}
    if time_limit is not None:
        options["time_limit"] = max(float(time_limit), 0.05)
    if mip_rel_gap:
        options["mip_rel_gap"] = float(mip_rel_gap)
    if node_limit is not None:
        options["node_limit"] = max(int(node_limit), 1)
    return options
