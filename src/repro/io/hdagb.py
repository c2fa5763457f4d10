"""Binary ``.hdagb`` DAG format: memory-mapped buffers, streaming writer.

The out-of-core tier of the DAG pipeline.  A ``.hdagb`` file stores the
canonical CSR arrays of a :class:`~repro.core.dag.ComputationalDAG` — the
exact buffers every kernel reads and the content fingerprint hashes — as
aligned little-endian blocks behind a small versioned header:

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
flags, the reserved padding and the name's padding are zero, as every
writer leaves them), then the payload's structure in one O(n + m) pass
(row pointer, target range, self-loops, weights) without copying a
buffer, then the checksum.  The fingerprint comes straight from the
header, not recomputed; the checksum covers it and the name (version 2),
so a flipped header fingerprint or name fails the load instead of
changing a request's cache key.  Version-1 files, whose checksum covered
the payload only, are refused as an unsupported version.  Mapped buffers
are read-only; the first mutation transparently copies (see
``ComputationalDAG._ensure_writable_weights`` and the capacity-doubling
edge appends, which always reallocate exactly-sized mapped buffers).

:class:`StreamingDagWriter` is the out-of-core construction path: it
accepts the same block-emitting API as :class:`~repro.core.dag.DagBuilder`
(``add_node_block`` / ``add_edges_array``), spills every block to disk,
and finalises into a ``.hdagb`` file holding only O(n) index arrays plus
one block in memory — never the edge buffers.  Its output is byte-identical
to ``write_hdagb(builder.freeze())`` for the same emission sequence.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import tempfile
import uuid
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.csr import build_csr
from ..core.dag import ComputationalDAG, _check_edge_endpoints
from ..core.exceptions import DagError

__all__ = [
    "HDAGB_MAGIC",
    "HDAGB_VERSION",
    "MappedDag",
    "StreamingDagWriter",
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
_CHUNK_BYTES = 4 << 20  # streaming hash / copy chunk


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


def _fingerprint_prefix(n: int) -> "hashlib._Hash":
    hasher = hashlib.sha256(b"repro-dag-v1")
    hasher.update(np.int64(n).tobytes())
    return hasher


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
    buffer and the predecessor CSR are derived lazily on first use (one
    O(m) pass each).  Mutations behave exactly like on an in-memory DAG:
    weight writes copy the mapped vectors first, edge/node appends
    reallocate (the mapped buffers are exactly sized, so the shared
    ``_grow`` path always copies), and once mutated the ordinary lazy CSR
    rebuild takes over.  Pickling materialises a plain in-memory DAG, so
    mapped DAGs travel through process pools like any other.
    """

    def __init__(self, *args, **kwargs):  # pragma: no cover - guarded API
        raise DagError("MappedDag is constructed by read_hdagb(), not directly")

    @classmethod
    def _from_mapping(cls, num_nodes, work, comm, indptr, targets, name, fingerprint):
        dag = cls.__new__(cls)
        dag.name = name
        dag._n = int(num_nodes)
        dag._work = work
        dag._comm = comm
        dag._m = int(targets.shape[0])
        dag._mapped_n = int(num_nodes)
        dag._mapped_indptr = indptr
        dag._mapped_targets = targets
        dag._esrc_cache = None
        dag._edst = targets
        dag._edge_set = None
        dag._invalidate()
        dag._content_fingerprint = fingerprint
        return dag

    def _is_pristine(self) -> bool:
        """Whether the structure still equals the mapping (nothing appended)."""
        return (
            self._n == self._mapped_n
            and self._edst is self._mapped_targets
            and self._m == self._mapped_targets.shape[0]
        )

    @property
    def _esrc(self) -> np.ndarray:
        cache = self._esrc_cache
        if cache is None:
            # canonical source-major order regenerated from the mapped row
            # pointer; read-only so every append-path _grow reallocates
            cache = np.repeat(
                np.arange(self._mapped_n, dtype=_INT),
                np.diff(self._mapped_indptr),
            )
            cache.flags.writeable = False
            self._esrc_cache = cache
        return cache

    @_esrc.setter
    def _esrc(self, value: np.ndarray) -> None:
        self._esrc_cache = value

    def _ensure_csr(self) -> None:
        if self._succ_indptr is not None:
            return
        if not self._is_pristine():
            super()._ensure_csr()
            return
        # the successor CSR *is* the mapping; only the predecessor side
        # needs building (one stable counting sort over the edges)
        src = self._esrc
        pred_indptr, pred_indices = build_csr(self._n, self._edst, src)
        for array in (pred_indptr, pred_indices):
            array.flags.writeable = False
        self._succ_indptr = self._mapped_indptr
        self._succ_indices = self._mapped_targets
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices

    def __reduce__(self):
        return (
            _materialized_dag,
            (
                self._n,
                np.array(self._work[: self._n], dtype=np.float64),
                np.array(self._comm[: self._n], dtype=np.float64),
                np.array(self._esrc[: self._m], dtype=_INT),
                np.array(self._edst[: self._m], dtype=_INT),
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
    # the writers zero these bytes, and no checksum covers them
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


# ---------------------------------------------------------------------- #
# streaming writer
# ---------------------------------------------------------------------- #
class StreamingDagWriter:
    """Out-of-core ``DagBuilder``: spill blocks to disk, finalise to ``.hdagb``.

    Accepts the builder's block-emitting API (``add_node_block``,
    ``add_nodes_array``, ``add_edge``, ``add_edges_array``) but keeps only
    the per-source edge counts in memory — node weights and edge blocks
    are appended to spill files as they arrive.  :meth:`finalize` then
    assembles the ``.hdagb`` file with two sequential passes over the
    spills (a counting-sort scatter of the targets and a hashing pass),
    so peak memory stays O(n + block) however many edges stream through.

    For the same emission sequence the resulting file is byte-identical
    to ``write_hdagb(builder.freeze())`` — the scatter reproduces the
    stable source-major order of :func:`repro.core.csr.build_csr`.

    Usable as a context manager; leaving the ``with`` block without a
    successful :meth:`finalize` removes the spill files and writes
    nothing.
    """

    def __init__(
        self,
        path: str | Path,
        name: str = "dag",
        *,
        block_edges: int = 1 << 20,
        tmp_dir: str | Path | None = None,
    ) -> None:
        if block_edges < 1:
            raise DagError("block_edges must be positive")
        self._path = Path(path)
        self.name = name
        self._block = int(block_edges)
        self._n = 0
        self._m = 0
        self._counts = np.zeros(0, dtype=_INT)
        self._closed = False
        parent = Path(tmp_dir) if tmp_dir is not None else self._path.parent
        self._spill = Path(
            tempfile.mkdtemp(prefix=f".{self._path.name}.spill-", dir=parent)
        )
        self._work_f = open(self._spill / "work.f8", "wb")
        self._comm_f = open(self._spill / "comm.f8", "wb")
        self._esrc_f = open(self._spill / "esrc.i8", "wb")
        self._edst_f = open(self._spill / "edst.i8", "wb")

    # -------------------------------------------------------------- #
    @property
    def num_nodes(self) -> int:
        """Number of nodes emitted so far."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges emitted so far."""
        return self._m

    def _check_open(self) -> None:
        if self._closed:
            raise DagError("StreamingDagWriter is closed")

    def add_node_block(self, count: int, work: float = 1.0, comm: float = 1.0) -> int:
        """Append ``count`` identically weighted nodes; return the first index."""
        self._check_open()
        if count <= 0:
            return self._n
        if work < 0 or comm < 0:
            raise DagError("node weights must be non-negative")
        first = self._n
        chunk = max(1, _CHUNK_BYTES // 8)
        work_chunk = np.full(min(count, chunk), float(work), dtype=_F8).tobytes()
        comm_chunk = np.full(min(count, chunk), float(comm), dtype=_F8).tobytes()
        remaining = count
        while remaining > 0:
            step = min(remaining, chunk)
            self._work_f.write(work_chunk[: 8 * step])
            self._comm_f.write(comm_chunk[: 8 * step])
            remaining -= step
        self._n += count
        return first

    def add_nodes_array(
        self,
        work_weights: Sequence[float],
        comm_weights: Sequence[float] | None = None,
    ) -> np.ndarray:
        """Append one node per entry of ``work_weights``; return their indices."""
        self._check_open()
        work = np.ascontiguousarray(work_weights, dtype=_F8)
        comm = (
            np.ones_like(work)
            if comm_weights is None
            else np.ascontiguousarray(comm_weights, dtype=_F8)
        )
        if work.shape != comm.shape or work.ndim != 1:
            raise DagError("weight arrays must be 1-D and of equal length")
        if work.size and (work.min() < 0 or comm.min() < 0):
            raise DagError("node weights must be non-negative")
        self._work_f.write(work.tobytes())
        self._comm_f.write(comm.tobytes())
        first = self._n
        self._n += work.size
        return np.arange(first, self._n, dtype=_INT)

    def add_edge(self, source: int, target: int) -> None:
        """Append a single edge (convenience wrapper over the block path)."""
        self.add_edges_array(
            np.array([source], dtype=_INT), np.array([target], dtype=_INT)
        )

    def add_edges_array(
        self,
        sources: np.ndarray | Sequence[int],
        targets: np.ndarray | Sequence[int],
    ) -> None:
        """Append parallel edge arrays; endpoints validated against nodes so far."""
        self._check_open()
        src = np.ascontiguousarray(sources, dtype=_INT)
        dst = np.ascontiguousarray(targets, dtype=_INT)
        if src.shape != dst.shape or src.ndim != 1:
            raise DagError("sources and targets must be 1-D arrays of equal length")
        if src.size == 0:
            return
        _check_edge_endpoints(self._n, src, dst)
        if self._counts.shape[0] < self._n:
            grown = np.zeros(max(self._n, 2 * self._counts.shape[0]), dtype=_INT)
            grown[: self._counts.shape[0]] = self._counts
            self._counts = grown
        block = np.bincount(src)
        self._counts[: block.shape[0]] += block
        self._esrc_f.write(src.astype(_I8, copy=False).tobytes())
        self._edst_f.write(dst.astype(_I8, copy=False).tobytes())
        self._m += src.size

    # -------------------------------------------------------------- #
    def _cleanup(self) -> None:
        for handle in (self._work_f, self._comm_f, self._esrc_f, self._edst_f):
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        shutil.rmtree(self._spill, ignore_errors=True)
        self._closed = True

    def abort(self) -> None:
        """Drop the spill files without writing anything."""
        if not self._closed:
            self._cleanup()

    def __enter__(self) -> "StreamingDagWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.abort()

    def _iter_edge_blocks(self):
        """Yield ``(src, dst)`` int64 block pairs re-read from the spills."""
        with open(self._spill / "esrc.i8", "rb") as src_f, open(
            self._spill / "edst.i8", "rb"
        ) as dst_f:
            while True:
                raw_src = src_f.read(8 * self._block)
                if not raw_src:
                    return
                raw_dst = dst_f.read(len(raw_src))
                yield (
                    np.frombuffer(raw_src, dtype=_I8),
                    np.frombuffer(raw_dst, dtype=_I8),
                )

    def _copy_spill(self, handle, spill_name: str, checksum) -> None:
        with open(self._spill / spill_name, "rb") as spill:
            while True:
                chunk = spill.read(_CHUNK_BYTES)
                if not chunk:
                    return
                handle.write(chunk)
                checksum.update(chunk)

    def _write_weights(self, handle, checksum, spill_name: str, override) -> None:
        """One weight section: the spill copy, or a finalize-time override."""
        if override is None:
            self._copy_spill(handle, spill_name, checksum)
            return
        arr = np.ascontiguousarray(override, dtype=_F8)
        if arr.ndim != 1 or arr.shape[0] != self._n:
            raise DagError(
                f"weight override must have length {self._n}, got shape {arr.shape}"
            )
        if arr.size and arr.min() < 0:
            raise DagError("node weights must be non-negative")
        step = max(1, _CHUNK_BYTES // 8)
        for lo in range(0, arr.shape[0], step):
            data = arr[lo : lo + step].tobytes()
            handle.write(data)
            checksum.update(data)

    def finalize(
        self,
        *,
        validate: bool = True,
        work: np.ndarray | None = None,
        comm: np.ndarray | None = None,
    ) -> str:
        """Assemble the ``.hdagb`` file; return the DAG content fingerprint.

        Three bounded-memory passes over the spills: a counting-sort
        scatter of the targets into their canonical CSR slots, an optional
        per-row duplicate-edge check (``validate``, on by default — the
        same contract as ``DagBuilder.freeze``), and one hashing sweep
        computing both the payload checksum and the content fingerprint.
        ``work``/``comm`` override the spilled per-node weights with
        finalize-time vectors — that is how the streamed generators apply
        degree-based weight models, whose inputs only exist once all edges
        have been seen, without a second pass over the node spills.
        The write is atomic (tmp sibling + rename).
        """
        self._check_open()
        for handle in (self._work_f, self._comm_f, self._esrc_f, self._edst_f):
            handle.flush()
        n = self._n
        m = self._m
        name_bytes = self.name.encode("utf-8")
        payload, work_off, comm_off, indptr_off, targets_off, end = _layout(
            name_bytes, n, m
        )
        indptr = np.zeros(n + 1, dtype=_I8)
        np.cumsum(self._counts[:n], out=indptr[1:])

        checksum = hashlib.sha256()
        tmp = self._path.parent / f".{self._path.name}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(b"\x00" * _HEADER.size)
                handle.write(name_bytes)
                handle.write(b"\x00" * (payload - _HEADER.size - len(name_bytes)))

                def pad_to(offset: int) -> None:
                    gap = offset - handle.tell()
                    if gap > 0:
                        zeros = b"\x00" * gap
                        handle.write(zeros)
                        checksum.update(zeros)

                self._write_weights(handle, checksum, "work.f8", work)
                pad_to(comm_off)
                self._write_weights(handle, checksum, "comm.f8", comm)
                pad_to(indptr_off)
                data = indptr.tobytes()
                handle.write(data)
                checksum.update(data)
                pad_to(targets_off)
                handle.truncate(end)

            # pass 1 — counting-sort scatter of the targets: stable within
            # each block (stable argsort) and across blocks (cursor
            # advance), reproducing build_csr's canonical row order
            if m:
                out = np.memmap(tmp, dtype=np.uint8, mode="r+")
                targets_view = out[targets_off:end].view(_I8)
                cursor = indptr[:n].astype(_INT, copy=True)
                for src, dst in self._iter_edge_blocks():
                    order = np.argsort(src, kind="stable")
                    ssrc = src[order]
                    sdst = dst[order]
                    uniq, first_index, counts = np.unique(
                        ssrc, return_index=True, return_counts=True
                    )
                    within = np.arange(ssrc.shape[0], dtype=_INT) - np.repeat(
                        first_index, counts
                    )
                    targets_view[cursor[ssrc] + within] = sdst
                    cursor[uniq] += counts
                out.flush()
                del targets_view, out

            mapping = np.memmap(tmp, dtype=np.uint8, mode="r") if end > payload else None
            targets_view = (
                mapping[targets_off:end].view(_I8)
                if mapping is not None
                else np.empty(0, dtype=_I8)
            )

            # pass 2 — per-row duplicate check, chunked on row boundaries
            if validate and m:
                self._validate_rows(indptr, targets_view, n)

            # pass 3 — payload checksum of the scattered section + content
            # fingerprint over the canonical buffers (sources regenerated
            # row-chunk by row-chunk from the row pointer)
            for pos in range(targets_off, end, _CHUNK_BYTES):
                checksum.update(mapping[pos : min(pos + _CHUNK_BYTES, end)])
            fingerprint = self._fingerprint(mapping, indptr, n, m, name_bytes)

            with open(tmp, "r+b") as handle:
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
            if mapping is not None:
                del targets_view, mapping
            os.replace(tmp, self._path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        finally:
            self._cleanup()
        return fingerprint

    def _validate_rows(self, indptr: np.ndarray, targets: np.ndarray, n: int) -> None:
        """Duplicate-edge check in row chunks (mirrors ``DagBuilder.freeze``)."""
        chunk_rows = 0
        row = 0
        limit = max(self._block, 1)
        while row < n:
            # widest row span whose edges fit in one block
            chunk_rows = int(
                np.searchsorted(indptr, indptr[row] + limit, side="right")
            ) - 1
            chunk_rows = max(chunk_rows, row + 1)
            chunk_rows = min(chunk_rows, n)
            lo = int(indptr[row])
            hi = int(indptr[chunk_rows])
            seg = np.asarray(targets[lo:hi], dtype=_INT)
            rows = np.repeat(
                np.arange(row, chunk_rows, dtype=_INT),
                np.diff(indptr[row : chunk_rows + 1]).astype(_INT),
            )
            keys = np.sort(rows * np.int64(n) + seg)
            duplicates = keys[1:] == keys[:-1]
            if duplicates.any():
                dup = keys[int(np.argmax(duplicates))]
                raise DagError(
                    f"duplicate edge ({int(dup // n)}, {int(dup % n)})"
                )
            row = chunk_rows

    def _fingerprint(
        self,
        mapping: np.ndarray | None,
        indptr: np.ndarray,
        n: int,
        m: int,
        name_bytes: bytes,
    ) -> str:
        hasher = _fingerprint_prefix(n)
        _payload, work_off, comm_off, indptr_off, targets_off, end = _layout(
            name_bytes, n, m
        )
        if mapping is not None:
            for lo, hi in ((work_off, work_off + 8 * n), (comm_off, comm_off + 8 * n)):
                for pos in range(lo, hi, _CHUNK_BYTES):
                    hasher.update(mapping[pos : min(pos + _CHUNK_BYTES, hi)])
        # canonical sources, regenerated in row chunks from the row pointer
        row = 0
        limit = max(self._block, 1)
        while row < n:
            chunk_rows = int(
                np.searchsorted(indptr, indptr[row] + limit, side="right")
            ) - 1
            chunk_rows = max(chunk_rows, row + 1)
            chunk_rows = min(chunk_rows, n)
            sources = np.repeat(
                np.arange(row, chunk_rows, dtype=_INT),
                np.diff(indptr[row : chunk_rows + 1]).astype(_INT),
            )
            hasher.update(sources.astype(_I8, copy=False).tobytes())
            row = chunk_rows
        if mapping is not None:
            for pos in range(targets_off, end, _CHUNK_BYTES):
                hasher.update(mapping[pos : min(pos + _CHUNK_BYTES, end)])
        return hasher.hexdigest()
