"""Columnar state container of the HCcs pass kernels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HccsState"]


@dataclass
class HccsState:
    """Columnar HCcs window-walk state, built once and kept across passes.

    ``send``/``recv``/``comm_max``/``choices`` are mutated by the pass
    kernel; the remaining columns are the read-only window descriptors
    (sources, targets, feasible phase bounds, volumes) plus the scan order
    ``movable`` — the indices of the windows with more than one feasible
    phase, in the deterministic window order.
    """

    send: np.ndarray
    recv: np.ndarray
    comm_max: np.ndarray
    choices: np.ndarray
    movable: np.ndarray
    srcs: np.ndarray
    tgts: np.ndarray
    earliest: np.ndarray
    latest: np.ndarray
    volumes: np.ndarray
