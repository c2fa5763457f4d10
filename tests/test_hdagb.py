"""Tests for the out-of-core DAG pipeline (.hdagb + streaming generation).

Covers the binary format end to end:

* write/read round trips (structure, weights, CSR orders, name,
  fingerprint read from the header vs recomputed from the buffers),
* rejection of truncated, corrupted and foreign files,
* copy-on-write semantics of the memory-mapped DAG (reads are zero-copy
  views into the file; the first mutation copies, and the file is never
  touched),
* streaming-writer output bit-identical to writing the in-memory builder's
  DAG, across every streamable generator family and weight model,
* the acceptance surfaces: ``load_dag`` dispatch, ``ScheduleRequest`` file
  references, ``load_schedule`` dag_ref paths and the CLI.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import MachineSpec, ScheduleRequest, SchedulerSpec, SchedulingService
from repro.api.request import dag_fingerprint
from repro.core import ComputationalDAG, save_schedule, load_schedule
from repro.core.exceptions import ConfigurationError, CycleError, DagError
from repro.dagdb import (
    SparseMatrixPattern,
    build_amd_elimination_dag,
    build_elimination_dag,
    build_fft_dag,
    build_rcm_elimination_dag,
    build_stencil_dag,
    stream_generate,
)
from repro.io import (
    MappedDag,
    StreamingDagWriter,
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


class TestRoundTrip:
    def test_structure_weights_and_name_survive(self, tmp_path):
        dag = random_dag(200, 0.05, seed=11)
        dag.set_work(3, 7.5)
        dag.set_comm(5, 0.25)
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
        dag = ComputationalDAG(3)
        dag.add_edge(0, 1)
        dag.add_edge(1, 2)
        path = tmp_path / "t.hdagb"
        write_hdagb(dag, path)
        raw = bytearray(path.read_bytes())
        raw[-8] = 1  # the last edge 1 -> 2 becomes 1 -> 1
        path.write_bytes(bytes(raw))
        with pytest.raises(CycleError, match="self-loop"):
            read_hdagb(path)

    def test_bit_flips_load_or_raise_dag_error(self, tmp_path):
        """400 seeded single-bit flips of an fft(16) file.

        Each flip either makes :func:`read_hdagb` raise a ``DagError`` or
        loads a DAG whose CSR builds with every target in range.  No flip
        at or past the payload offset loads: the checksum catches the ones
        that keep the structure valid (a weight, a reordered or cyclic
        edge).  Header fields the reader trusts (the fingerprint, flags,
        reserved bytes, the name and, within its padding, the name
        length) are not covered by the checksum.
        """
        clean_path = tmp_path / "fft.hdagb"
        write_hdagb(build_fft_dag(16, track_roles=False).dag, clean_path)
        clean = clean_path.read_bytes()
        payload = int.from_bytes(clean[96:104], "little")
        rng = np.random.default_rng(400)
        positions = rng.integers(0, len(clean), size=400)
        bits = rng.integers(0, 8, size=400)
        for index, (position, bit) in enumerate(zip(positions.tolist(), bits.tolist())):
            raw = bytearray(clean)
            raw[position] ^= 1 << bit
            path = tmp_path / f"flip{index}.hdagb"
            path.write_bytes(bytes(raw))
            try:
                dag = read_hdagb(path)
            except DagError:
                continue
            assert position < payload, index
            n = dag.num_nodes
            for indptr, indices in (
                (dag.succ_indptr, dag.succ_indices),
                (dag.pred_indptr, dag.pred_indices),
            ):
                assert indptr[0] == 0 and indptr[-1] == dag.num_edges, index
                assert (np.diff(indptr) >= 0).all(), index
                assert ((indices >= 0) & (indices < n)).all(), index

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


class TestCopyOnWrite:
    def test_weight_mutation_copies_and_file_unaffected(self, tmp_path):
        path = tmp_path / "d.hdagb"
        dag = random_dag(40, 0.1, seed=6)
        write_hdagb(dag, path)
        before = path.read_bytes()
        loaded = read_hdagb(path)
        loaded.set_work(0, 99.0)
        assert loaded.work_weights[0] == 99.0
        assert path.read_bytes() == before
        # the mutation dropped the memoized fingerprint
        assert dag_fingerprint(loaded) != dag_fingerprint(dag)
        # a fresh read still sees the original content
        assert read_hdagb(path).work_weights[0] == dag.work_weights[0]

    def test_structural_mutation_reallocates(self, tmp_path):
        path = tmp_path / "d.hdagb"
        dag = random_dag(40, 0.1, seed=6)
        write_hdagb(dag, path)
        before = path.read_bytes()
        loaded = read_hdagb(path)
        v = loaded.add_node(work=2.0)
        loaded.add_edge(0, v)
        assert loaded.num_nodes == dag.num_nodes + 1
        assert loaded.num_edges == dag.num_edges + 1
        assert v in list(loaded.successors(0))
        assert path.read_bytes() == before
        # CSR rebuilt off the mapping after mutation, and valid
        assert len(loaded.topological_order()) == loaded.num_nodes


class TestStreamingWriter:
    def test_bit_identity_with_odd_blocks(self, tmp_path):
        dag = random_dag(300, 0.03, seed=7)
        sources, targets = dag.edge_arrays()
        write_hdagb(canonical(dag), tmp_path / "mem.hdagb")
        with StreamingDagWriter(
            tmp_path / "st.hdagb", name=dag.name, block_edges=257
        ) as writer:
            writer.add_nodes_array(dag.work_weights, dag.comm_weights)
            for start in range(0, len(sources), 173):
                writer.add_edges_array(
                    sources[start : start + 173], targets[start : start + 173]
                )
            writer.finalize()
        assert (tmp_path / "st.hdagb").read_bytes() == (
            tmp_path / "mem.hdagb"
        ).read_bytes()

    def test_duplicate_edge_rejected_at_finalize(self, tmp_path):
        with StreamingDagWriter(tmp_path / "dup.hdagb", name="dup") as writer:
            writer.add_node_block(3)
            writer.add_edges_array([0, 1, 0], [1, 2, 1])
            with pytest.raises(DagError, match="duplicate"):
                writer.finalize()
        assert not (tmp_path / "dup.hdagb").exists()
        assert list(tmp_path.iterdir()) == []  # spills and tmp cleaned up

    def test_abort_cleans_up(self, tmp_path):
        writer = StreamingDagWriter(tmp_path / "a.hdagb", name="a")
        writer.add_node_block(5)
        writer.add_edge(0, 1)
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_invalid_edges_rejected_eagerly(self, tmp_path):
        with StreamingDagWriter(tmp_path / "b.hdagb", name="b") as writer:
            writer.add_node_block(4)
            with pytest.raises(DagError):
                writer.add_edge(2, 2)  # self-loop
            with pytest.raises(DagError):
                writer.add_edges_array([0], [7])  # out of range


class TestStreamGenerate:
    @pytest.mark.parametrize(
        "generator,params,builder",
        [
            ("fft", {"points": 16}, lambda: build_fft_dag(16).dag),
            (
                "stencil2d",
                {"side": 6, "steps": 2},
                lambda: build_stencil_dag((6, 6), 2).dag,
            ),
            (
                "stencil3d",
                {"side": 4, "steps": 2},
                lambda: build_stencil_dag((4, 4, 4), 2).dag,
            ),
        ],
    )
    def test_streamed_equals_in_memory(self, tmp_path, generator, params, builder):
        fingerprint = stream_generate(tmp_path / "s.hdagb", generator, **params)
        dag = builder()
        write_hdagb(dag, tmp_path / "m.hdagb")
        assert (tmp_path / "s.hdagb").read_bytes() == (tmp_path / "m.hdagb").read_bytes()
        assert fingerprint == dag_fingerprint(dag)

    def test_cholesky_orderings_match(self, tmp_path):
        pattern = SparseMatrixPattern.random(50, 0.12, seed=5, ensure_diagonal=True)
        stream_generate(tmp_path / "s.hdagb", "cholesky_rcm", pattern=pattern)
        write_hdagb(build_rcm_elimination_dag(pattern).dag, tmp_path / "m.hdagb")
        assert (tmp_path / "s.hdagb").read_bytes() == (tmp_path / "m.hdagb").read_bytes()

    @pytest.mark.parametrize(
        "generator,builder",
        [
            ("cholesky", build_elimination_dag),
            ("cholesky_rcm", build_rcm_elimination_dag),
            ("cholesky_amd", build_amd_elimination_dag),
        ],
    )
    def test_mtx_file_to_streamed_elimination_dag(self, tmp_path, generator, builder):
        """A Matrix Market pattern on disk streams to the in-memory bytes."""
        pattern = SparseMatrixPattern.random(60, 0.1, seed=5, ensure_diagonal=True)
        write_matrix_market_pattern(pattern, tmp_path / "matrix.mtx")
        loaded = read_matrix_market_pattern(tmp_path / "matrix.mtx")
        assert loaded.size == 60
        fingerprint = stream_generate(tmp_path / "s.hdagb", generator, pattern=loaded)
        reference = builder(pattern).dag
        write_hdagb(reference, tmp_path / "m.hdagb")
        assert (tmp_path / "s.hdagb").read_bytes() == (tmp_path / "m.hdagb").read_bytes()
        assert fingerprint == dag_fingerprint(reference)
        streamed = read_hdagb(tmp_path / "s.hdagb")  # passes the checksum
        assert streamed.num_edges == reference.num_edges

    @pytest.mark.parametrize("model", ["paper", "indegree", "unit"])
    def test_weight_models_match_in_memory(self, tmp_path, model):
        from repro.dagdb import apply_weight_model

        fingerprint = stream_generate(
            tmp_path / "s.hdagb", "fft", points=8, weight_model=model
        )
        dag = build_fft_dag(8).dag  # builders apply the paper model
        if model != "paper":
            apply_weight_model(dag, model)
            dag._content_fingerprint = None
        assert fingerprint == dag_fingerprint(dag)

    def test_unknown_generator_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="streaming emitter"):
            stream_generate(tmp_path / "x.hdagb", "spmv", size=8)


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
        stream_generate(tmp_path / "d.hdagb", "stencil2d", side=5, steps=2)
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
        save_schedule(schedule, tmp_path / "s.json")
        load_schedule(tmp_path / "s.json").validate()


class TestCli:
    def test_generate_stream_matches_in_memory(self, tmp_path, capsys):
        from repro.cli import main

        streamed = tmp_path / "s.hdagb"
        in_memory = tmp_path / "m.hdagb"
        base = ["generate", "--generator", "stencil2d", "--size", "8",
                "--iterations", "2"]
        assert main(base + ["--stream", "--output", str(streamed)]) == 0
        assert main(
            base + ["--out-format", "hdagb", "--output", str(in_memory)]
        ) == 0
        assert streamed.read_bytes() == in_memory.read_bytes()
        assert "streamed" in capsys.readouterr().out

    def test_generate_stream_requires_streamable_generator(self, tmp_path):
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="streaming emitter"):
            main(
                ["generate", "--generator", "spmv", "--stream",
                 "--output", str(tmp_path / "x.hdagb")]
            )

    def test_schedule_and_compare_accept_hdagb(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "d.hdagb"
        write_hdagb(build_fft_dag(8).dag, path)
        assert main(["schedule", str(path), "--scheduler", "cilk"]) == 0
        assert main(["compare", str(path), "--schedulers", "cilk", "hdagg"]) == 0
        out = capsys.readouterr().out
        assert "cilk" in out and "hdagg" in out
