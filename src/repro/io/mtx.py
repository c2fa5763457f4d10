"""MatrixMarket (``.mtx``) pattern reader/writer, CSR end to end.

The paper's fine-grained generator can build its computational DAGs from the
nonzero pattern of a real-world matrix instead of a random one (Appendix
B.2: "the generator also has the option to load input matrices from a
file").  This module reads the coordinate MatrixMarket format — by far the
most common exchange format for such matrices (SuiteSparse etc.) — straight
into the CSR arrays of a
:class:`~repro.dagdb.sparsegen.SparseMatrixPattern`: the entry block is
parsed in one ``np.loadtxt`` call and deduplicated/sorted with one
``np.unique`` pass, so ingesting a million-nonzero matrix costs a few numpy
operations rather than a Python loop per entry.

Only the structural information is used: values are ignored, ``symmetric``
and ``skew-symmetric``/``hermitian`` matrices are expanded, and rectangular
matrices are rejected (the generators need square operands).
:func:`write_matrix_market_pattern` writes a pattern back out; reading the
written file reproduces the CSR arrays exactly (round-trip identity).
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path
from typing import TextIO

import numpy as np

from ..core.exceptions import DagError
from ..dagdb.sparsegen import SparseMatrixPattern

__all__ = [
    "read_matrix_market_pattern",
    "loads_matrix_market_pattern",
    "write_matrix_market_pattern",
    "dumps_matrix_market_pattern",
]

_INT = np.int64

#: the symmetry qualifiers of the coordinate format; all but ``general``
#: store one triangle, which the reader mirrors
_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


def loads_matrix_market_pattern(text: str) -> SparseMatrixPattern:
    """Parse MatrixMarket coordinate data from a string."""
    return _read(io.StringIO(text))


def read_matrix_market_pattern(path: str | Path) -> SparseMatrixPattern:
    """Read the nonzero pattern of a MatrixMarket coordinate file."""
    with open(path, "r", encoding="utf-8") as handle:
        return _read(handle)


def dumps_matrix_market_pattern(pattern: SparseMatrixPattern) -> str:
    """Render a pattern as MatrixMarket ``coordinate pattern general`` text."""
    out = io.StringIO()
    _write(pattern, out)
    return out.getvalue()


def write_matrix_market_pattern(pattern: SparseMatrixPattern, path: str | Path) -> None:
    """Write a pattern to a MatrixMarket coordinate file."""
    with open(path, "w", encoding="utf-8") as handle:
        _write(pattern, handle)


def _write(pattern: SparseMatrixPattern, handle: TextIO) -> None:
    handle.write("%%MatrixMarket matrix coordinate pattern general\n")
    handle.write(f"{pattern.size} {pattern.size} {pattern.nnz}\n")
    table = np.column_stack((pattern.row_ids() + 1, pattern.indices + 1))
    np.savetxt(handle, table, fmt="%d")


def _read(handle: TextIO) -> SparseMatrixPattern:
    header = handle.readline().strip().lower().split()
    if len(header) < 4 or header[0] != "%%matrixmarket" or header[1] != "matrix":
        raise DagError("not a MatrixMarket file (missing %%MatrixMarket header)")
    layout = header[2]
    symmetry = header[4] if len(header) > 4 else "general"
    if layout != "coordinate":
        raise DagError(f"only coordinate MatrixMarket files are supported, got {layout!r}")
    if symmetry not in _SYMMETRIES:
        raise DagError(
            f"unknown MatrixMarket symmetry {symmetry!r} "
            f"(expected one of {', '.join(_SYMMETRIES)})"
        )

    size_line = None
    for raw in handle:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = stripped
        break
    if size_line is None:
        raise DagError("MatrixMarket file has no size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise DagError(f"malformed size line {size_line!r}")
    try:
        rows, cols, nnz = (int(x) for x in parts)
    except ValueError as exc:
        raise DagError(f"malformed size line {size_line!r}") from exc
    if rows != cols:
        raise DagError(
            f"the fine-grained generators need a square matrix, got {rows}x{cols}"
        )

    # one vectorized pass over the whole entry block (values are ignored;
    # ragged lines or non-numeric fields surface as a loadtxt ValueError)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on an empty block
            table = np.loadtxt(handle, comments="%", ndmin=2)
    except ValueError as exc:
        raise DagError(f"malformed MatrixMarket entry block: {exc}") from exc
    if table.size and table.shape[1] < 2:
        raise DagError("malformed MatrixMarket entry block: entries need 2+ fields")
    read_entries = table.shape[0] if table.size else 0
    if read_entries != nnz:
        raise DagError(
            f"MatrixMarket file announces {nnz} entries but contains {read_entries}"
        )

    if read_entries == 0:
        return SparseMatrixPattern.from_csr(
            rows, np.zeros(rows + 1, dtype=_INT), np.empty(0, dtype=_INT)
        )
    coords = table[:, :2]
    # every check runs on the floats: casting inf, nan or a huge value to
    # int64 warns and wraps, which would misreport the entry
    for bad, problem in (
        (~np.isfinite(coords), "non-finite"),
        (coords != np.floor(coords), "non-integer"),
    ):
        if bad.any():
            k = int(np.argmax(bad.any(axis=1)))
            raise DagError(
                f"malformed MatrixMarket entry: {problem} coordinate in row "
                f"{coords[k, 0]:g} {coords[k, 1]:g}"
            )
    bad = (coords < 1).any(axis=1) | (coords[:, 0] > rows) | (coords[:, 1] > cols)
    if bad.any():
        k = int(np.argmax(bad))
        raise DagError(
            f"entry ({coords[k, 0]:g}, {coords[k, 1]:g}) out of bounds for {rows}x{cols}"
        )
    i = coords[:, 0].astype(_INT) - 1
    j = coords[:, 1].astype(_INT) - 1
    if symmetry != "general":
        off_diag = i != j
        mirrored_i, mirrored_j = j[off_diag], i[off_diag]
        i = np.concatenate((i, mirrored_i))
        j = np.concatenate((j, mirrored_j))
    keys = np.unique(i * _INT(max(rows, 1)) + j)
    counts = np.bincount(keys // max(rows, 1), minlength=rows)
    indptr = np.zeros(rows + 1, dtype=_INT)
    np.cumsum(counts, out=indptr[1:])
    return SparseMatrixPattern.from_csr(
        rows, indptr, (keys % max(rows, 1)).astype(_INT), validate=False
    )
