"""BSP machine model with optional NUMA effects (paper Sections 3.2 and 3.4).

A :class:`BspMachine` is described by

* ``num_procs`` (``P``): the number of processors,
* ``g``: the time cost of sending one unit of data between processors,
* ``latency`` (``ℓ``): the fixed overhead of every superstep,
* ``numa`` (``λ``): a ``P × P`` matrix of per-pair communication
  multipliers.  The uniform BSP model corresponds to ``λ[p1][p2] = 1`` for
  ``p1 != p2`` and ``0`` on the diagonal.

The paper's NUMA experiments use a binary-tree hierarchy over the processors
where crossing each additional level of the hierarchy multiplies the
communication cost by a factor ``Δ``; :meth:`BspMachine.numa_hierarchy`
builds exactly that matrix (Section 6: for ``P = 8`` and ``Δ = 3`` the costs
from processor 1 are ``λ[0][1] = 1``, ``λ[0][2..3] = 3`` and
``λ[0][4..7] = 9``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import MachineError
from .wire import as_float, as_int, as_mapping

__all__ = ["BspMachine", "MachineSpec"]


def _uniform_numa(num_procs: int) -> np.ndarray:
    numa = np.ones((num_procs, num_procs), dtype=np.float64)
    np.fill_diagonal(numa, 0.0)
    return numa


@dataclass(frozen=True)
class BspMachine:
    """An immutable BSP(+NUMA) machine description.

    Attributes
    ----------
    num_procs:
        The number of processors ``P``.
    g:
        Per-unit communication cost.
    latency:
        Per-superstep latency ``ℓ``.
    numa:
        ``P × P`` matrix of NUMA multipliers ``λ``.  The diagonal must be
        zero (no cost for "sending" to yourself).
    """

    num_procs: int
    g: float = 1.0
    latency: float = 0.0
    numa: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise MachineError(f"num_procs must be >= 1, got {self.num_procs}")
        # a plain ``< 0`` test lets NaN through
        if not (math.isfinite(self.g) and self.g >= 0):
            raise MachineError(f"g must be finite and non-negative, got {self.g}")
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise MachineError(
                f"latency must be finite and non-negative, got {self.latency}"
            )
        numa = self.numa
        if numa is None:
            numa = _uniform_numa(self.num_procs)
        else:
            numa = np.asarray(numa, dtype=np.float64).copy()
            if numa.shape != (self.num_procs, self.num_procs):
                raise MachineError(
                    f"numa matrix must be {self.num_procs}x{self.num_procs}, "
                    f"got shape {numa.shape}"
                )
            if not np.all((numa >= 0) & np.isfinite(numa)):
                raise MachineError("numa multipliers must be finite and non-negative")
            if np.any(np.diag(numa) != 0):
                raise MachineError("numa matrix diagonal must be zero")
        numa.flags.writeable = False
        object.__setattr__(self, "numa", numa)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(cls, num_procs: int, g: float = 1.0, latency: float = 0.0) -> "BspMachine":
        """Classic BSP machine with uniform communication costs."""
        return cls(num_procs=num_procs, g=g, latency=latency)

    @classmethod
    def numa_hierarchy(
        cls,
        num_procs: int,
        delta: float,
        g: float = 1.0,
        latency: float = 0.0,
    ) -> "BspMachine":
        """Binary-tree NUMA hierarchy with level multiplier ``delta`` (paper §6).

        ``num_procs`` must be a power of two.  Two processors whose lowest
        common ancestor in the binary tree is ``k`` levels above the leaves
        communicate with multiplier ``delta ** (k - 1)`` (so siblings cost 1,
        crossing one extra level costs ``delta``, two extra levels
        ``delta**2``, ...).
        """
        if num_procs < 2 or (num_procs & (num_procs - 1)) != 0:
            raise MachineError(
                f"numa_hierarchy requires a power-of-two processor count >= 2, got {num_procs}"
            )
        if delta <= 0:
            raise MachineError(f"delta must be positive, got {delta}")
        numa = np.zeros((num_procs, num_procs), dtype=np.float64)
        for p1 in range(num_procs):
            for p2 in range(num_procs):
                if p1 == p2:
                    continue
                # Number of levels one has to go up until p1 and p2 share an
                # ancestor: the position of the highest differing bit, 1-based.
                diff = p1 ^ p2
                level = diff.bit_length()  # >= 1
                numa[p1, p2] = delta ** (level - 1)
        return cls(num_procs=num_procs, g=g, latency=latency, numa=numa)

    @classmethod
    def from_numa_matrix(
        cls,
        numa: np.ndarray,
        g: float = 1.0,
        latency: float = 0.0,
    ) -> "BspMachine":
        """Machine defined directly by an explicit NUMA matrix."""
        numa = np.asarray(numa, dtype=np.float64)
        return cls(num_procs=numa.shape[0], g=g, latency=latency, numa=numa)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def is_uniform(self) -> bool:
        """Whether the machine has the default uniform communication costs."""
        return bool(np.array_equal(self.numa, _uniform_numa(self.num_procs)))

    def comm_multiplier(self, p1: int, p2: int) -> float:
        """NUMA multiplier ``λ[p1][p2]``."""
        return float(self.numa[p1, p2])

    @property
    def average_numa_multiplier(self) -> float:
        """Average of ``λ`` over all ordered pairs of *distinct* processors.

        Used by the BL-EST/ETF baselines to fold NUMA effects into a single
        scalar (Appendix A.1).
        """
        if self.num_procs == 1:
            return 0.0
        total = float(self.numa.sum())
        return total / (self.num_procs * (self.num_procs - 1))

    @property
    def max_numa_multiplier(self) -> float:
        """Largest NUMA multiplier."""
        return float(self.numa.max())

    def with_params(
        self,
        g: float | None = None,
        latency: float | None = None,
    ) -> "BspMachine":
        """A copy of this machine with ``g`` and/or ``latency`` replaced."""
        return BspMachine(
            num_procs=self.num_procs,
            g=self.g if g is None else g,
            latency=self.latency if latency is None else latency,
            numa=self.numa,
        )

    def describe(self) -> str:
        """One-line human readable description."""
        kind = "uniform" if self.is_uniform else "NUMA"
        return (
            f"BspMachine(P={self.num_procs}, g={self.g}, l={self.latency}, {kind})"
        )


@dataclass(frozen=True)
class MachineSpec:
    """A declarative machine-parameter point (``P``, ``g``, ``ℓ``, optional ``Δ``).

    The serializable counterpart of :class:`BspMachine`: four plain scalars
    instead of a materialised ``P × P`` NUMA matrix, so specs are cheap to
    hash, compare and ship across process or wire boundaries.  The
    experiment grids of :mod:`repro.analysis.experiments` and the
    :class:`repro.api.ScheduleRequest` wire format are both built from
    these.
    """

    num_procs: int
    g: float = 1.0
    latency: float = 5.0
    numa_delta: float | None = None

    def build(self) -> BspMachine:
        """Materialise the :class:`BspMachine`."""
        if self.numa_delta is None:
            return BspMachine.uniform(self.num_procs, g=self.g, latency=self.latency)
        return BspMachine.numa_hierarchy(
            self.num_procs, delta=self.numa_delta, g=self.g, latency=self.latency
        )

    def label(self) -> str:
        """Short label used in table headers."""
        base = f"P={self.num_procs},g={self.g:g},l={self.latency:g}"
        if self.numa_delta is not None:
            base += f",D={self.numa_delta:g}"
        return base

    def to_dict(self) -> dict:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "num_procs": int(self.num_procs),
            "g": float(self.g),
            "latency": float(self.latency),
            "numa_delta": None if self.numa_delta is None else float(self.numa_delta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        try:
            data = as_mapping(data, "machine spec")
            delta = data.get("numa_delta")
            return cls(
                num_procs=as_int(data["num_procs"], "num_procs"),
                g=as_float(data.get("g", 1.0), "g"),
                latency=as_float(data.get("latency", 5.0), "latency"),
                numa_delta=None if delta is None else as_float(delta, "numa_delta"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MachineError(f"malformed machine spec: {exc}") from exc
