"""Tests for the binary ``.hdagb`` DAG format.

Covers the format end to end:

* write/read round trips (structure, weights, CSR orders, name,
  fingerprint read from the header vs recomputed from the buffers),
* rejection of truncated, corrupted and foreign files,
* copy-on-write semantics of the memory-mapped DAG (reads are zero-copy
  views into the file; the first mutation copies, and the file is never
  touched),
* the writer: canonical bytes whatever order a DAG's edges were appended
  in, a rewrite of a loaded file is byte-identical, a failed write leaves
  the old file and no temporary, and re-weighted DAGs and elimination DAGs
  of Matrix Market patterns carry their content through,
* the acceptance surfaces: ``load_dag`` dispatch, ``ScheduleRequest`` file
  references, ``load_schedule`` dag_ref paths and the CLI, whose
  ``generate`` writes the same DAG in both output formats for every
  generator it offers.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.api import MachineSpec, ScheduleRequest, SchedulerSpec, SchedulingService
from repro.api.request import dag_fingerprint
from repro.core import (
    BspMachine,
    BspSchedule,
    ComputationalDAG,
    DagBuilder,
    load_schedule,
    schedule_to_dict,
)
from repro.core.exceptions import CycleError, DagError
from repro.dagdb import (
    COARSE_GENERATORS,
    FINE_GENERATORS,
    STRUCTURED_GENERATORS,
    SparseMatrixPattern,
    apply_weight_model,
    build_amd_elimination_dag,
    build_elimination_dag,
    build_fft_dag,
    build_rcm_elimination_dag,
    build_stencil_dag,
)
from repro.io import (
    MappedDag,
    is_hdagb,
    load_dag,
    read_hdagb,
    read_matrix_market_pattern,
    write_hdagb,
    write_hyperdag,
    write_matrix_market_pattern,
)
from repro.io.hdagb import _layout

from conftest import random_dag


def canonical(dag: ComputationalDAG) -> ComputationalDAG:
    """The canonical-edge-order reconstruction a round trip converges to."""
    sources, targets = dag.edge_arrays()
    return ComputationalDAG.from_edge_arrays(
        dag.num_nodes,
        sources,
        targets,
        dag.work_weights,
        dag.comm_weights,
        name=dag.name,
    )


def cholesky_pattern() -> SparseMatrixPattern:
    """The pattern ``generate --size 12 --density 0.2 --seed 3`` draws."""
    return SparseMatrixPattern.random(12, 0.2, seed=3, ensure_diagonal=True)


#: every generator name ``repro generate --generator`` accepts
CLI_GENERATORS = sorted(
    set(FINE_GENERATORS) | set(COARSE_GENERATORS) | set(STRUCTURED_GENERATORS)
)


class TestRoundTrip:
    def test_structure_weights_and_name_survive(self, tmp_path):
        dag = random_dag(200, 0.05, seed=11)
        work, comm = dag.work_weights.copy(), dag.comm_weights.copy()
        work[3], comm[5] = 7.5, 0.25
        dag = dag.with_weights(work, comm)
        dag.name = "roundtrip_dag"
        write_hdagb(dag, tmp_path / "d.hdagb")
        loaded = read_hdagb(tmp_path / "d.hdagb")
        reference = canonical(dag)
        assert loaded.num_nodes == dag.num_nodes
        assert loaded.num_edges == dag.num_edges
        assert loaded.name == "roundtrip_dag"
        assert np.array_equal(loaded.work_weights, dag.work_weights)
        assert np.array_equal(loaded.comm_weights, dag.comm_weights)
        assert np.array_equal(loaded.succ_indptr, reference.succ_indptr)
        assert np.array_equal(loaded.succ_indices, reference.succ_indices)
        assert np.array_equal(loaded.pred_indptr, reference.pred_indptr)
        assert np.array_equal(loaded.pred_indices, reference.pred_indices)

    def test_fingerprint_from_header_matches_recompute(self, tmp_path):
        dag = random_dag(120, 0.08, seed=2)
        written = write_hdagb(dag, tmp_path / "d.hdagb")
        assert written == dag_fingerprint(dag)
        loaded = read_hdagb(tmp_path / "d.hdagb")
        # memoized straight from the header: no recompute needed...
        assert loaded._content_fingerprint == written
        assert dag_fingerprint(loaded) == written
        # ...and an honest recompute over the mapped buffers agrees
        loaded._content_fingerprint = None
        assert dag_fingerprint(loaded) == written

    def test_graph_queries_work_on_mapped_dag(self, tmp_path):
        dag = build_fft_dag(16).dag
        write_hdagb(dag, tmp_path / "d.hdagb")
        loaded = read_hdagb(tmp_path / "d.hdagb")
        assert loaded.depth() == dag.depth()
        assert list(loaded.successors(0)) == list(dag.successors(0))
        # pred rows come back in canonical (source-major) order, which may
        # differ from the in-memory insertion order within a row
        assert sorted(loaded.predecessors(dag.num_nodes - 1)) == sorted(
            dag.predecessors(dag.num_nodes - 1)
        )
        assert np.array_equal(loaded.topological_order(), dag.topological_order())

    def test_succ_csr_is_zero_copy_and_read_only(self, tmp_path):
        dag = random_dag(64, 0.1, seed=4)
        write_hdagb(dag, tmp_path / "d.hdagb")
        loaded = read_hdagb(tmp_path / "d.hdagb")
        indptr = loaded.succ_indptr
        assert not indptr.flags.writeable
        assert isinstance(indptr.base, np.ndarray)  # a view into the mapping
        with pytest.raises((ValueError, RuntimeError)):
            loaded.succ_indices[0] = 0

    def test_edge_arrays_reuse_the_mapped_source_column(self, tmp_path):
        dag = random_dag(64, 0.1, seed=4)
        write_hdagb(dag, tmp_path / "d.hdagb")
        loaded = read_hdagb(tmp_path / "d.hdagb")
        sources, targets = loaded.edge_arrays()
        expected_sources, expected_targets = dag.edge_arrays()
        assert np.array_equal(sources, expected_sources)
        assert np.array_equal(targets, expected_targets)
        # one source column per mapped DAG, not a second copy
        assert sources is loaded._esrc

    def test_empty_dag_round_trip(self, tmp_path):
        dag = ComputationalDAG(0)
        dag.name = "empty"
        write_hdagb(dag, tmp_path / "e.hdagb")
        loaded = read_hdagb(tmp_path / "e.hdagb")
        assert loaded.num_nodes == 0 and loaded.num_edges == 0

    def test_pickle_materializes_with_fingerprint(self, tmp_path):
        dag = random_dag(50, 0.1, seed=9)
        fingerprint = write_hdagb(dag, tmp_path / "d.hdagb")
        loaded = read_hdagb(tmp_path / "d.hdagb")
        clone = pickle.loads(pickle.dumps(loaded))
        assert type(clone) is ComputationalDAG  # not a MappedDag
        assert dag_fingerprint(clone) == fingerprint
        assert np.array_equal(clone.succ_indices, loaded.succ_indices)


class TestRejection:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.hdagb"
        dag = random_dag(30, 0.1, seed=1)
        write_hdagb(dag, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(DagError):
            read_hdagb(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DagError):
            read_hdagb(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DagError, match="corrupt or truncated"):
            read_hdagb(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DagError, match="magic"):
            read_hdagb(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field, little-endian u32 at offset 8
        path.write_bytes(bytes(raw))
        with pytest.raises(DagError, match="version"):
            read_hdagb(path)

    @pytest.mark.parametrize(
        "offset, message",
        [
            (12, "flags"),  # flags, u32 at offset 12
            (117, "padding"),  # reserved padding after the name length
            (125, "padding"),  # between the 4-byte name and the payload
        ],
    )
    def test_nonzero_reserved_header_byte(self, tmp_path, offset, message):
        path = tmp_path / "t.hdagb"
        dag = random_dag(30, 0.1, seed=1)
        dag.name = "name"
        write_hdagb(dag, path)
        raw = bytearray(path.read_bytes())
        assert int.from_bytes(raw[96:104], "little") == 128 and raw[offset] == 0
        raw[offset] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(DagError, match=message):
            read_hdagb(path)

    def test_checksum_flip_caught_by_verify(self, tmp_path):
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        raw = bytearray(path.read_bytes())
        payload = int.from_bytes(raw[96:104], "little")
        raw[payload] ^= 0x01  # lowest mantissa bit of the first work weight
        path.write_bytes(bytes(raw))
        # the weight stays valid, so only the checksum can catch the flip
        with pytest.raises(DagError, match="checksum"):
            read_hdagb(path)
        with pytest.raises(DagError, match="checksum"):
            load_dag(path)

    @staticmethod
    def _sections(raw, dag):
        """Writable typed views of the four payload sections of ``raw``."""
        n, m = dag.num_nodes, dag.num_edges
        _, work, comm, indptr, targets, end = _layout(dag.name.encode(), n, m)
        return {
            "work": raw[work : work + 8 * n].view("<f8"),
            "comm": raw[comm : comm + 8 * n].view("<f8"),
            "indptr": raw[indptr : indptr + 8 * (n + 1)].view("<i8"),
            "targets": raw[targets:end].view("<i8"),
        }

    @pytest.mark.parametrize(
        "edit", ["comm_mantissa", "work_value", "reordered_row", "section_padding"]
    )
    def test_valid_looking_payload_edit_fails_the_checksum(self, tmp_path, edit):
        """Edits the structural check cannot see are the checksum's to catch."""
        dag = random_dag(30, 0.1, seed=1)
        path = tmp_path / "t.hdagb"
        write_hdagb(dag, path)
        raw = np.frombuffer(bytearray(path.read_bytes()), dtype=np.uint8)
        sections = self._sections(raw, dag)
        if edit == "comm_mantissa":
            sections["comm"][0] = np.nextafter(sections["comm"][0], np.inf)
        elif edit == "work_value":
            sections["work"][1] = sections["work"][1] + 2.5
        elif edit == "reordered_row":
            indptr, targets = sections["indptr"], sections["targets"]
            row = next(r for r in range(30) if indptr[r + 1] - indptr[r] >= 2)
            first = int(indptr[row])
            targets[[first, first + 1]] = targets[[first + 1, first]]
        else:
            # 30 work weights end 16 bytes short of the aligned comm section
            _, work, comm, *_ = _layout(dag.name.encode(), 30, dag.num_edges)
            assert work + 8 * 30 < comm and raw[work + 8 * 30] == 0
            raw[work + 8 * 30] = 0x5A
        assert raw.tobytes() != path.read_bytes()
        path.write_bytes(raw.tobytes())
        with pytest.raises(DagError, match="checksum mismatch"):
            read_hdagb(path)

    def test_checksum_mismatch_reaches_the_service(self, tmp_path):
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[int.from_bytes(raw[96:104], "little")] ^= 0x01
        path.write_bytes(bytes(raw))
        request = ScheduleRequest(
            dag=str(path),
            machine=MachineSpec(num_procs=2),
            scheduler=SchedulerSpec("cilk"),
        )
        with pytest.raises(DagError, match="checksum"):
            SchedulingService().solve(request)

    def test_checksum_mismatch_is_one_cli_line(self, tmp_path, capsys):
        from repro.cli import run

        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[int.from_bytes(raw[96:104], "little")] ^= 0x01
        path.write_bytes(bytes(raw))
        assert run(["schedule", str(path), "--scheduler", "cilk"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DagError: ")
        assert "checksum mismatch" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_out_of_range_target_caught_without_verify(self, tmp_path):
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # high byte of the last target: + 2**56
        path.write_bytes(bytes(raw))
        with pytest.raises(DagError, match="out of range"):
            read_hdagb(path)

    @pytest.mark.parametrize(
        "section, index, value, match",
        [
            ("indptr", 0, 1, "row pointer"),
            ("indptr", 3, 10**12, "row pointer"),
            ("indptr", -1, 0, "row pointer"),
            ("targets", 0, -1, "out of range"),
            ("work", 2, np.nan, "work weights"),
            ("work", 2, -1.0, "work weights"),
            ("comm", 2, np.inf, "comm weights"),
        ],
    )
    def test_structural_corruption_is_a_dag_error(
        self, tmp_path, section, index, value, match
    ):
        dag = random_dag(30, 0.1, seed=1)
        path = tmp_path / "t.hdagb"
        write_hdagb(dag, path)
        raw = np.frombuffer(bytearray(path.read_bytes()), dtype=np.uint8)
        self._sections(raw, dag)[section][index] = value
        path.write_bytes(raw.tobytes())
        with pytest.raises(DagError, match=match):
            read_hdagb(path)

    def test_self_loop_is_a_cycle_error(self, tmp_path):
        dag = ComputationalDAG.from_edge_arrays(3, [0, 1], [1, 2])
        path = tmp_path / "t.hdagb"
        write_hdagb(dag, path)
        raw = bytearray(path.read_bytes())
        raw[-8] = 1  # the last edge 1 -> 2 becomes 1 -> 1
        path.write_bytes(bytes(raw))
        with pytest.raises(CycleError, match="self-loop"):
            read_hdagb(path)

    def test_bit_flips_load_or_raise_dag_error(self, tmp_path):
        """400 seeded single-bit flips of an fft(16) file: none loads.

        The structural checks and the zero flags, reserved padding and
        name padding catch most header flips; the checksum catches every
        payload flip that keeps the structure valid (a weight, a reordered
        or cyclic edge), and every flip of the header fingerprint, the name
        or a name length that grows into the name's zero padding.
        """
        clean_path = tmp_path / "fft.hdagb"
        write_hdagb(build_fft_dag(16, track_roles=False).dag, clean_path)
        clean = clean_path.read_bytes()
        rng = np.random.default_rng(400)
        positions = rng.integers(0, len(clean), size=400)
        bits = rng.integers(0, 8, size=400)
        for index, (position, bit) in enumerate(zip(positions.tolist(), bits.tolist())):
            raw = bytearray(clean)
            raw[position] ^= 1 << bit
            path = tmp_path / f"flip{index}.hdagb"
            path.write_bytes(bytes(raw))
            with pytest.raises(DagError):
                read_hdagb(path)
            path.unlink()

    def test_fingerprint_and_name_flips_fail_the_checksum(self, tmp_path):
        path = tmp_path / "t.hdagb"
        dag = random_dag(30, 0.1, seed=1)
        dag.name = "name"
        write_hdagb(dag, path)
        clean = path.read_bytes()
        for offset in (32, 63, 120, 123):  # fingerprint first/last, name first/last
            raw = bytearray(clean)
            raw[offset] ^= 0x01
            path.write_bytes(bytes(raw))
            with pytest.raises(DagError, match="checksum mismatch"):
                read_hdagb(path)

    def test_version_one_file_is_refused(self, tmp_path):
        """A version-1 file's checksum covers the payload only: refused."""
        path = tmp_path / "t.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DagError, match="unsupported hdagb version 1"):
            read_hdagb(path)

    def test_is_hdagb_and_magic_sniffing(self, tmp_path):
        dag = random_dag(20, 0.1, seed=3)
        binary = tmp_path / "d.hdagb"
        text = tmp_path / "d.hdag"
        write_hdagb(dag, binary)
        write_hyperdag(dag, text)
        assert is_hdagb(binary) and not is_hdagb(text)
        assert not is_hdagb(tmp_path / "missing.hdagb")
        # a binary file under a text extension is sniffed by magic bytes
        disguised = tmp_path / "disguised.hdag"
        disguised.write_bytes(binary.read_bytes())
        assert isinstance(load_dag(disguised), MappedDag)
        assert isinstance(load_dag(text), ComputationalDAG)
        assert dag_fingerprint(load_dag(disguised)) == dag_fingerprint(dag)


class TestReweighting:
    def test_with_weights_shares_the_mapping_and_leaves_the_file(self, tmp_path):
        """A re-weighted mapped DAG is a new in-memory DAG over the mapped
        structure; the loaded DAG, its fingerprint, a schedule costed on it
        and the file's bytes all stay as they were."""
        path = tmp_path / "d.hdagb"
        dag = random_dag(40, 0.1, seed=6)
        fingerprint = write_hdagb(dag, path)
        before = path.read_bytes()
        loaded = read_hdagb(path)
        machine = BspMachine.uniform(2, g=1, latency=2)
        schedule = BspSchedule(
            loaded, machine, np.arange(40) % 2, np.asarray(loaded.levels())
        )
        cost = schedule.cost()
        work = loaded.work_weights.copy()
        work[0] = 99.0
        heavy = loaded.with_weights(work, loaded.comm_weights)
        assert type(heavy) is ComputationalDAG
        assert heavy.work_weights[0] == 99.0
        assert loaded.work_weights[0] == dag.work_weights[0]
        # the structure is the mapping's, by identity
        assert heavy.succ_indptr is loaded.succ_indptr
        assert heavy.succ_indices is loaded.succ_indices
        assert heavy.pred_indices is loaded.pred_indices
        assert heavy.edge_arrays()[0] is loaded.edge_arrays()[0]
        assert dag_fingerprint(heavy) != fingerprint
        assert dag_fingerprint(loaded) == fingerprint
        assert schedule.cost() == cost
        assert BspSchedule(heavy, machine, schedule.procs, schedule.supersteps).cost() > cost
        assert path.read_bytes() == before
        # a fresh read still sees the original content
        assert read_hdagb(path).work_weights[0] == dag.work_weights[0]


class TestWriter:
    def test_chunked_builder_writes_the_canonical_bytes(self, tmp_path):
        dag = random_dag(300, 0.03, seed=7)
        sources, targets = dag.edge_arrays()
        builder = DagBuilder(name=dag.name)
        builder.add_nodes_array(dag.work_weights, dag.comm_weights)
        for start in range(0, len(sources), 173):
            builder.add_edges_array(
                sources[start : start + 173], targets[start : start + 173]
            )
        write_hdagb(builder.freeze(), tmp_path / "built.hdagb")
        write_hdagb(canonical(dag), tmp_path / "mem.hdagb")
        assert (tmp_path / "built.hdagb").read_bytes() == (
            tmp_path / "mem.hdagb"
        ).read_bytes()

    def test_order_of_appended_sources_does_not_reach_the_file(self, tmp_path):
        """Rows appended last source first write the bytes of source-major order."""
        dag = random_dag(150, 0.06, seed=8)
        sources, targets = dag.edge_arrays()
        rows = np.split(np.arange(len(sources)), np.flatnonzero(np.diff(sources)) + 1)
        builder = DagBuilder(name=dag.name)
        builder.add_nodes_array(dag.work_weights, dag.comm_weights)
        for row in reversed(rows):
            builder.add_edges_array(sources[row], targets[row])
        built = builder.freeze()
        assert write_hdagb(built, tmp_path / "built.hdagb") == dag_fingerprint(dag)
        write_hdagb(dag, tmp_path / "mem.hdagb")
        assert (tmp_path / "built.hdagb").read_bytes() == (
            tmp_path / "mem.hdagb"
        ).read_bytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_dag(120, 0.05, seed=3),
            lambda: build_fft_dag(16).dag,
            lambda: build_stencil_dag((4, 4, 4), 2).dag,
            lambda: ComputationalDAG(0),
            lambda: ComputationalDAG(3, name="Δ-dag ✓"),
        ],
        ids=["random", "fft", "stencil3d", "empty", "non_ascii_name"],
    )
    def test_rewriting_a_loaded_file_is_byte_identical(self, tmp_path, make):
        first = tmp_path / "first.hdagb"
        second = tmp_path / "second.hdagb"
        fingerprint = write_hdagb(make(), first)
        loaded = read_hdagb(first)
        loaded._content_fingerprint = None  # recompute from the mapped buffers
        assert write_hdagb(loaded, second) == fingerprint
        assert second.read_bytes() == first.read_bytes()

    def test_failed_write_keeps_the_old_file_and_no_temporary(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "d.hdagb"
        write_hdagb(random_dag(30, 0.1, seed=1), path)
        before = path.read_bytes()

        def fail(*_args):
            raise OSError("disk full")

        # the checksum is sealed after the payload is on disk
        monkeypatch.setattr("repro.io.hdagb._checksum_digest", fail)
        with pytest.raises(OSError, match="disk full"):
            write_hdagb(random_dag(40, 0.1, seed=2), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("model", ["paper", "indegree", "unit"])
    def test_reweighted_dag_writes_its_new_fingerprint(self, tmp_path, model):
        dag = build_stencil_dag((4, 4), 2).dag  # builders apply the paper model
        paper = dag_fingerprint(dag)  # memoized before the re-weighting
        reweighted = apply_weight_model(dag, model)
        written = write_hdagb(reweighted, tmp_path / "d.hdagb")
        assert (written == paper) == (model == "paper")
        assert dag_fingerprint(dag) == paper
        loaded = read_hdagb(tmp_path / "d.hdagb")
        assert np.array_equal(loaded.work_weights, reweighted.work_weights)
        assert np.array_equal(loaded.comm_weights, reweighted.comm_weights)
        loaded._content_fingerprint = None
        assert dag_fingerprint(loaded) == written

    @pytest.mark.parametrize(
        "builder",
        [build_elimination_dag, build_rcm_elimination_dag, build_amd_elimination_dag],
        ids=["cholesky", "cholesky_rcm", "cholesky_amd"],
    )
    def test_matrix_market_pattern_writes_the_in_memory_bytes(
        self, tmp_path, builder
    ):
        """A pattern read back from Matrix Market gives the original's file."""
        pattern = SparseMatrixPattern.random(60, 0.1, seed=5, ensure_diagonal=True)
        write_matrix_market_pattern(pattern, tmp_path / "matrix.mtx")
        loaded = read_matrix_market_pattern(tmp_path / "matrix.mtx")
        assert loaded.size == 60
        fingerprint = write_hdagb(builder(loaded).dag, tmp_path / "f.hdagb")
        reference = builder(pattern).dag
        write_hdagb(reference, tmp_path / "m.hdagb")
        assert (tmp_path / "f.hdagb").read_bytes() == (tmp_path / "m.hdagb").read_bytes()
        assert fingerprint == dag_fingerprint(reference)
        assert read_hdagb(tmp_path / "f.hdagb").num_edges == reference.num_edges


class TestAcceptanceSurfaces:
    def test_request_fingerprint_identical_to_in_memory(self, tmp_path):
        dag = build_fft_dag(16).dag
        write_hdagb(dag, tmp_path / "d.hdagb")
        spec = dict(
            machine=MachineSpec(num_procs=4), scheduler=SchedulerSpec("cilk")
        )
        by_file = ScheduleRequest(dag=str(tmp_path / "d.hdagb"), **spec)
        by_object = ScheduleRequest(dag=dag, **spec)
        assert by_file.fingerprint() == by_object.fingerprint()

    def test_service_solves_hdagb_reference(self, tmp_path):
        write_hdagb(build_stencil_dag((5, 5), 2).dag, tmp_path / "d.hdagb")
        request = ScheduleRequest(
            dag=str(tmp_path / "d.hdagb"),
            machine=MachineSpec(num_procs=2),
            scheduler=SchedulerSpec("cilk"),
        )
        result = SchedulingService().solve(request)
        assert result.cost > 0
        result.to_schedule().validate()

    def test_load_schedule_resolves_hdagb_dag_ref(self, tmp_path):
        dag = build_fft_dag(8).dag
        write_hdagb(dag, tmp_path / "d.hdagb")
        request = ScheduleRequest(
            dag=str(tmp_path / "d.hdagb"),
            machine=MachineSpec(num_procs=2),
            scheduler=SchedulerSpec("cilk"),
        )
        result = SchedulingService().solve(request)
        out = tmp_path / "sched.json"
        out.write_text(result.to_json())
        schedule = load_schedule(out)
        schedule.validate()
        assert schedule.dag.num_nodes == dag.num_nodes

    def test_load_schedule_still_reads_plain_payloads(self, tmp_path):
        dag = build_fft_dag(8).dag
        request = ScheduleRequest(
            dag=dag, machine=MachineSpec(num_procs=2), scheduler=SchedulerSpec("cilk")
        )
        schedule = SchedulingService().solve(request).to_schedule()
        # the schedule-only payload that load_schedule still reads
        (tmp_path / "s.json").write_text(json.dumps(schedule_to_dict(schedule)))
        load_schedule(tmp_path / "s.json").validate()


class TestCli:
    @pytest.mark.parametrize(
        "args,builder",
        [
            (
                ["--generator", "stencil2d", "--size", "8", "--iterations", "2"],
                lambda: build_stencil_dag((8, 8), 2).dag,
            ),
            (["--generator", "fft", "--size", "16"], lambda: build_fft_dag(16).dag),
            (
                ["--generator", "stencil3d", "--size", "4", "--iterations", "2"],
                lambda: build_stencil_dag((4, 4, 4), 2).dag,
            ),
            (
                ["--generator", "stencil2d_rect", "--size", "8", "--iterations", "2"],
                lambda: build_stencil_dag((8, 4), 2).dag,
            ),
            (
                ["--generator", "fft4", "--size", "16"],
                lambda: build_fft_dag(16, radix=4).dag,
            ),
            (
                ["--generator", "cholesky", "--size", "12", "--density", "0.2",
                 "--seed", "3"],
                lambda: build_elimination_dag(cholesky_pattern()).dag,
            ),
            (
                ["--generator", "cholesky_rcm", "--size", "12", "--density", "0.2",
                 "--seed", "3"],
                lambda: build_rcm_elimination_dag(cholesky_pattern()).dag,
            ),
            (
                ["--generator", "cholesky_amd", "--size", "12", "--density", "0.2",
                 "--seed", "3"],
                lambda: build_amd_elimination_dag(cholesky_pattern()).dag,
            ),
        ],
        ids=[
            "stencil2d",
            "fft",
            "stencil3d",
            "stencil2d_rect",
            "fft4",
            "cholesky",
            "cholesky_rcm",
            "cholesky_amd",
        ],
    )
    def test_generate_hdagb_output_matches_write_hdagb(
        self, tmp_path, capsys, args, builder
    ):
        """``--output x.hdagb`` picks the binary format on its own, and
        ``--out-format hdagb`` writes it under any name."""
        from repro.cli import main

        generated = tmp_path / "g.hdagb"
        explicit = tmp_path / "g.bin"
        reference = tmp_path / "r.hdagb"
        assert main(["generate", *args, "--output", str(generated)]) == 0
        assert f"wrote {generated}" in capsys.readouterr().out
        argv = ["generate", *args, "--out-format", "hdagb", "--output", str(explicit)]
        assert main(argv) == 0
        write_hdagb(builder(), reference)
        assert generated.read_bytes() == reference.read_bytes()
        assert explicit.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("generator", CLI_GENERATORS)
    def test_both_output_formats_hold_the_same_dag(self, tmp_path, generator):
        """``.hdagb`` and hyperDAG text outputs of one generator load alike."""
        from repro.cli import main

        binary = tmp_path / "g.hdagb"
        text = tmp_path / "g.hdag"
        for path in (binary, text):
            argv = ["generate", "--generator", generator, "--output", str(path)]
            assert main(argv) == 0
        mapped = load_dag(binary)
        parsed = load_dag(text)
        assert isinstance(mapped, MappedDag)
        assert not isinstance(parsed, MappedDag)
        assert mapped.num_nodes > 0
        assert mapped.name == parsed.name
        mapped._content_fingerprint = None  # recompute from the mapped buffers
        assert dag_fingerprint(mapped) == dag_fingerprint(parsed)

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--generator", "stencil2d", "--stream"], "unrecognized arguments: --stream"),
            (["--generator", "no_such_generator"], "invalid choice: 'no_such_generator'"),
        ],
        ids=["stream_flag", "unknown_generator"],
    )
    def test_generate_refuses_bad_arguments(self, tmp_path, capsys, extra, message):
        from repro.cli import main

        path = tmp_path / "x.hdagb"
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", *extra, "--output", str(path)])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not path.exists()

    def test_schedule_and_compare_accept_hdagb(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "d.hdagb"
        write_hdagb(build_fft_dag(8).dag, path)
        assert main(["schedule", str(path), "--scheduler", "cilk"]) == 0
        assert main(["compare", str(path), "--schedulers", "cilk", "hdagg"]) == 0
        out = capsys.readouterr().out
        assert "cilk" in out and "hdagg" in out
