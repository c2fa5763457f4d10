"""Binary ``.hdagb`` DAG format: memory-mapped buffers.

A ``.hdagb`` file stores the canonical CSR arrays of a
:class:`~repro.core.dag.ComputationalDAG` — the exact buffers every
kernel reads and the content fingerprint hashes — as aligned
little-endian blocks behind a small versioned header:

========  ======  =====================================================
offset    size    field
========  ======  =====================================================
0         8       magic ``b"\\x89HDAGB\\r\\n"`` (high bit + CRLF catch
                  text-mode and 7-bit corruption, PNG style)
8         4       format version (uint32, currently 2)
12        4       flags (uint32, reserved: must be 0)
16        8       number of nodes ``n`` (int64)
24        8       number of edges ``m`` (int64)
32        32      DAG content fingerprint (raw sha256 — the digest
                  :func:`repro.api.request.dag_fingerprint` computes)
64        32      checksum (sha256 of bytes ``[payload_offset,
                  file_size)``, then of the 32 fingerprint bytes,
                  then of the name's bytes)
96        8       payload offset (int64, 64-byte aligned)
104       8       file size (int64)
112       4       name length in bytes (uint32)
116       4       reserved padding (zero)
120       ...     DAG name (utf-8), zero-padded to ``payload_offset``
========  ======  =====================================================

The payload is four sections, each aligned to 64 bytes from the start of
the file and laid out back to back: work weights (``<f8[n]``), comm
weights (``<f8[n]``), the successor CSR row pointer (``<i8[n + 1]``) and
the CSR targets (``<i8[m]``, source-major with insertion order within a
source — the canonical edge order of
:meth:`~repro.core.dag.ComputationalDAG.edge_arrays`).  Section offsets
are derived from ``n``/``m``, so the header fully describes the file.

:func:`read_hdagb` opens the payload with one ``np.memmap`` and returns a
:class:`MappedDag` whose weight vectors and successor CSR are zero-copy
views into the mapping.  A load checks the header (including that the
flags, the reserved padding and the name's padding are zero, as the
writer leaves them), then the payload's structure in one O(n + m) pass
(row pointer, target range, self-loops, weights) without copying a
buffer, then the checksum.  The fingerprint comes straight from the
header, not recomputed; the checksum covers it and the name (version 2),
so a flipped header fingerprint or name fails the load instead of
changing a request's cache key.  Version-1 files, whose checksum covered
the payload only, are refused as an unsupported version.  Mapped buffers
are read-only, like every array of a DAG, so a loaded DAG always equals
its file; :meth:`~repro.core.dag.ComputationalDAG.with_weights` gives a
re-weighted in-memory DAG that shares the mapped structure.

:func:`write_hdagb` writes an in-memory DAG in this format.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import uuid
from pathlib import Path

import numpy as np

from ..core.csr import build_csr
from ..core.dag import ComputationalDAG, _check_edge_endpoints
from ..core.exceptions import DagError

__all__ = [
    "HDAGB_MAGIC",
    "HDAGB_VERSION",
    "MappedDag",
    "is_hdagb",
    "load_dag",
    "read_hdagb",
    "write_hdagb",
]

HDAGB_MAGIC = b"\x89HDAGB\r\n"
HDAGB_VERSION = 2

_INT = np.int64
_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")

#: magic 8s | version I | flags I | n q | m q | fingerprint 32s |
#: checksum 32s | payload_offset q | file_size q | name_len I | pad 4x
_HEADER = struct.Struct("<8sIIqq32s32sqqI4x")
_ALIGN = 64
_CHUNK_BYTES = 4 << 20  # checksum read chunk


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _layout(name_bytes: bytes, n: int, m: int) -> tuple[int, int, int, int, int, int]:
    """``(payload, work, comm, indptr, targets, end)`` offsets for a file."""
    payload = _align(_HEADER.size + len(name_bytes))
    work = payload
    comm = _align(work + 8 * n)
    indptr = _align(comm + 8 * n)
    targets = _align(indptr + 8 * (n + 1))
    return payload, work, comm, indptr, targets, targets + 8 * m


def _checksum_digest(hasher, fingerprint: bytes, name_bytes: bytes) -> bytes:
    """Finish a payload hash over the header fields the checksum also covers.

    No structural check can vouch for the raw fingerprint or the name, so
    they are hashed after the payload.
    """
    hasher.update(fingerprint)
    hasher.update(name_bytes)
    return hasher.digest()


# ---------------------------------------------------------------------- #
# mapped DAG
# ---------------------------------------------------------------------- #
def _materialized_dag(n, work, comm, src, dst, name, fingerprint):
    """Pickle target of :class:`MappedDag`: rebuild as a plain in-memory DAG."""
    dag = ComputationalDAG._from_buffers(n, work, comm, src, dst, name)
    dag._content_fingerprint = fingerprint
    return dag


class MappedDag(ComputationalDAG):
    """A :class:`ComputationalDAG` backed by a ``.hdagb`` memory mapping.

    The weight vectors, successor CSR row pointer and CSR targets are
    read-only zero-copy views into the file mapping; the flat source
    column and the predecessor CSR are derived on the first structural
    query (one O(m) pass each).  A DAG never changes, so a mapped one
    always equals its file.  Pickling materialises a plain in-memory DAG,
    so mapped DAGs travel through process pools like any other.
    """

    def __init__(self, *args, **kwargs):  # pragma: no cover - guarded API
        raise DagError("MappedDag is constructed by read_hdagb(), not directly")

    @classmethod
    def _from_mapping(cls, num_nodes, work, comm, indptr, targets, name, fingerprint):
        # the source column is derived with the predecessor CSR
        dag = cls._from_buffers(num_nodes, work, comm, None, targets, name)
        dag._succ_indptr = indptr
        dag._succ_indices = targets
        dag._content_fingerprint = fingerprint
        return dag

    def _ensure_csr(self) -> None:
        if self._pred_indptr is not None:
            return
        # the successor CSR *is* the mapping; only the predecessor side
        # needs building (one stable counting sort over the edges)
        sources = np.repeat(np.arange(self._n, dtype=_INT), np.diff(self._succ_indptr))
        sources.flags.writeable = False
        pred_indptr, pred_indices = build_csr(self._n, self._edst, sources)
        for array in (pred_indptr, pred_indices):
            array.flags.writeable = False
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices
        # the mapped edges are in canonical order, so this one column is
        # both the edge list's sources and edge_arrays()'s
        self._esrc = self._edge_sources = sources

    def __reduce__(self):
        sources, targets = self.edge_arrays()
        return (
            _materialized_dag,
            (
                self._n,
                np.array(self._work, dtype=np.float64),
                np.array(self._comm, dtype=np.float64),
                np.array(sources, dtype=_INT),
                np.array(targets, dtype=_INT),
                self.name,
                self._content_fingerprint,
            ),
        )


# ---------------------------------------------------------------------- #
# write / read
# ---------------------------------------------------------------------- #
def write_hdagb(dag: ComputationalDAG, path: str | Path) -> str:
    """Write ``dag`` to ``path`` in ``.hdagb`` format; return the fingerprint.

    The write is atomic (tmp sibling + rename).  Sections are emitted in
    canonical CSR order, so the header fingerprint equals what
    :func:`repro.api.request.dag_fingerprint` computes for the in-memory
    DAG — and what :func:`read_hdagb` seeds into the loaded one.
    """
    from ..api.request import dag_fingerprint

    path = Path(path)
    n = dag.num_nodes
    m = dag.num_edges
    name_bytes = dag.name.encode("utf-8")
    payload, work_off, comm_off, indptr_off, targets_off, end = _layout(
        name_bytes, n, m
    )
    work = np.ascontiguousarray(dag.work_weights, dtype=_F8)
    comm = np.ascontiguousarray(dag.comm_weights, dtype=_F8)
    indptr = np.ascontiguousarray(dag.succ_indptr, dtype=_I8)
    targets = np.ascontiguousarray(dag.succ_indices, dtype=_I8)
    fingerprint = dag_fingerprint(dag)

    checksum = hashlib.sha256()
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(b"\x00" * _HEADER.size)
            handle.write(name_bytes)
            handle.write(b"\x00" * (payload - _HEADER.size - len(name_bytes)))

            def emit(data, pad_to: int) -> None:
                handle.write(data)
                checksum.update(data)
                pad = pad_to - handle.tell()
                if pad > 0:
                    zeros = b"\x00" * pad
                    handle.write(zeros)
                    checksum.update(zeros)

            emit(work.tobytes(), comm_off)
            emit(comm.tobytes(), indptr_off)
            emit(indptr.tobytes(), targets_off)
            emit(targets.tobytes(), end)
            handle.seek(0)
            handle.write(
                _HEADER.pack(
                    HDAGB_MAGIC,
                    HDAGB_VERSION,
                    0,
                    n,
                    m,
                    bytes.fromhex(fingerprint),
                    _checksum_digest(checksum, bytes.fromhex(fingerprint), name_bytes),
                    payload,
                    end,
                    len(name_bytes),
                )
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return fingerprint


def _read_header(path: Path) -> tuple:
    """Validated header fields ``(n, m, fingerprint, checksum, payload, end, name)``."""
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            raw = handle.read(_HEADER.size)
            if len(raw) < _HEADER.size:
                raise DagError(f"{path}: truncated hdagb header ({len(raw)} bytes)")
            (
                magic,
                version,
                flags,
                n,
                m,
                fingerprint,
                checksum,
                payload,
                end,
                name_len,
            ) = _HEADER.unpack(raw)
            if magic != HDAGB_MAGIC:
                raise DagError(f"{path}: not an hdagb file (bad magic {magic!r})")
            if version != HDAGB_VERSION:
                raise DagError(
                    f"{path}: unsupported hdagb version {version} "
                    f"(this reader handles version {HDAGB_VERSION})"
                )
            # the name and its zero padding up to the aligned payload
            name_field = handle.read(_align(_HEADER.size + name_len) - _HEADER.size)
    except OSError as exc:
        raise DagError(f"{path}: cannot read hdagb file: {exc}") from exc
    name_bytes = name_field[:name_len]
    if len(name_bytes) < name_len:
        raise DagError(f"{path}: truncated hdagb name field")
    # the writer zeroes these bytes, and no checksum covers them
    if flags != 0:
        raise DagError(f"{path}: unsupported hdagb flags {flags:#x}")
    if any(raw[_HEADER.size - 4 :]) or any(name_field[name_len:]):
        raise DagError(f"{path}: corrupt hdagb header (non-zero padding)")
    if n < 0 or m < 0:
        raise DagError(f"{path}: corrupt hdagb header (n={n}, m={m})")
    expect_payload, *_rest, expect_end = _layout(name_bytes, n, m)
    if payload != expect_payload or end != expect_end or size != end:
        raise DagError(
            f"{path}: corrupt or truncated hdagb file (size {size}, "
            f"header claims {end}, layout expects {expect_end})"
        )
    try:
        name = name_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DagError(f"{path}: corrupt hdagb name field: {exc}") from exc
    return n, m, fingerprint, checksum, payload, end, name


def _check_payload(path: Path, n: int, m: int, work, comm, indptr, targets) -> None:
    """Structural checks of a mapped payload: O(n + m), no sort.

    The row pointer must start at 0, never decrease and end at ``m``;
    every target must be in range and differ from its source; every
    weight must be finite and non-negative.  Weight flips that stay
    valid are left to the payload checksum; cycles are left to the
    consumer (the scheduling service checks acyclicity before a solve).
    """
    if indptr[0] != 0 or indptr[n] != m or (indptr[1:] < indptr[:-1]).any():
        raise DagError(f"{path}: corrupt hdagb row pointer")
    sources = np.repeat(np.arange(n, dtype=_INT), np.diff(indptr))
    try:
        _check_edge_endpoints(n, sources, targets)
    except DagError as exc:
        raise type(exc)(f"{path}: corrupt hdagb targets: {exc}") from exc
    for what, weights in (("work", work), ("comm", comm)):
        if not (np.isfinite(weights).all() and (weights >= 0).all()):
            raise DagError(
                f"{path}: corrupt hdagb {what} weights (non-finite or negative)"
            )


def read_hdagb(path: str | Path) -> MappedDag:
    """Load a ``.hdagb`` file as a zero-copy :class:`MappedDag`.

    Every load validates the header, size and section bounds (so
    truncation and header corruption fail loudly), then the payload's
    structure (row pointer, target range, self-loops, weights; see
    :func:`_check_payload`) in O(n + m), then the checksum in one O(file)
    streaming read, so a flipped payload byte never loads.  The header's
    content fingerprint is not recomputed, but the checksum covers it and
    the name, so neither loads flipped either.
    """
    path = Path(path)
    n, m, fingerprint, checksum, payload, end, name = _read_header(path)
    name_bytes = name.encode("utf-8")
    mapping = np.memmap(path, dtype=np.uint8, mode="r")
    _payload, work_off, comm_off, indptr_off, targets_off, _end = _layout(
        name_bytes, n, m
    )
    work = np.asarray(mapping[work_off : work_off + 8 * n]).view(_F8)
    comm = np.asarray(mapping[comm_off : comm_off + 8 * n]).view(_F8)
    indptr = np.asarray(mapping[indptr_off : indptr_off + 8 * (n + 1)]).view(_I8)
    targets = np.asarray(mapping[targets_off : targets_off + 8 * m]).view(_I8)
    _check_payload(path, n, m, work, comm, indptr, targets)
    hasher = hashlib.sha256()
    for pos in range(payload, end, _CHUNK_BYTES):
        hasher.update(mapping[pos : min(pos + _CHUNK_BYTES, end)])
    if _checksum_digest(hasher, fingerprint, name_bytes) != checksum:
        raise DagError(f"{path}: hdagb checksum mismatch (payload, fingerprint or name)")
    return MappedDag._from_mapping(
        n, work, comm, indptr, targets, name, fingerprint.hex()
    )


def is_hdagb(path: str | Path) -> bool:
    """Whether ``path`` starts with the ``.hdagb`` magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(HDAGB_MAGIC)) == HDAGB_MAGIC
    except OSError:
        return False


def load_dag(path: str | Path) -> ComputationalDAG:
    """Load a DAG from any on-disk format, old or new.

    Dispatches on extension first (``.hdagb`` binary, ``.json`` stored
    ``dag_to_dict`` payload, anything else hyperDAG text), with a
    magic-bytes fallback so a ``.hdagb`` file under an unexpected name
    still loads.
    """
    path = Path(path)
    if path.suffix == ".hdagb":
        return read_hdagb(path)
    if path.suffix == ".json":
        from ..core.serialization import dag_from_dict

        return dag_from_dict(json.loads(path.read_text(encoding="utf-8")))
    if is_hdagb(path):
        return read_hdagb(path)
    from .hyperdag import read_hyperdag

    return read_hyperdag(path)
