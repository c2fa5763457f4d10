"""Strict readers for the scalar and mapping fields of the wire forms.

``int(1.5)`` truncates, ``int(True)`` is 1, ``float("nan")`` parses and
``.get`` on a list raises ``AttributeError``, so the plain coercions let a
malformed payload load the wrong thing or escape a ``from_dict``'s typed
error handler.  These readers raise ``TypeError`` / ``ValueError`` instead,
which every ``from_dict`` maps to its typed ``repro`` error.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Any

import numpy as np

__all__ = ["as_float", "as_int", "as_mapping"]


def as_mapping(value: Any, what: str) -> Mapping:
    """``value`` itself when it is a mapping, else ``TypeError``."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def as_int(value: Any, what: str) -> int:
    """An integral number as ``int``: booleans, strings and fractions fail."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer)
    ):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_float(value: Any, what: str) -> float:
    """A finite number as ``float``: booleans, strings, NaN and ±inf fail."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer)
    ):
        raise TypeError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)
