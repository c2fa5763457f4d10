"""Unit tests for hyperDAG I/O, DOT export and text rendering."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import BspMachine, BspSchedule, ComputationalDAG, DagError
from repro.dagdb import build_fft_dag
from repro.io import (
    dag_to_dot,
    dumps_hyperdag,
    loads_hyperdag,
    read_hyperdag,
    render_cost_table,
    render_schedule_text,
    schedule_to_dot,
    write_dot,
    write_hyperdag,
)

from conftest import build_diamond_dag, random_dag


class TestHyperDagFormat:
    def test_roundtrip_in_memory(self):
        dag = build_diamond_dag().with_weights([1, 7, 1, 1], [1, 1, 3, 1])
        text = dumps_hyperdag(dag)
        back = loads_hyperdag(text)
        assert back.num_nodes == dag.num_nodes
        assert back.num_edges == dag.num_edges
        assert back.work(1) == 7.0
        assert back.comm(2) == 3.0
        assert {(e.source, e.target) for e in back.edges()} == {
            (e.source, e.target) for e in dag.edges()
        }

    def test_roundtrip_on_disk(self, tmp_path):
        dag = random_dag(20, 0.2, seed=5)
        path = tmp_path / "example.hdag"
        write_hyperdag(dag, path)
        back = read_hyperdag(path)
        assert back.num_nodes == dag.num_nodes
        assert back.num_edges == dag.num_edges
        assert list(back.work_weights) == list(dag.work_weights)

    def test_name_preserved(self):
        dag = ComputationalDAG.from_edge_arrays(2, [0], [1], name="my_computation")
        assert loads_hyperdag(dumps_hyperdag(dag)).name == "my_computation"

    def test_one_hyperedge_per_non_sink(self):
        dag = build_diamond_dag()
        text = dumps_hyperdag(dag)
        assert "hyperedges 3" in text  # nodes 0, 1, 2 have successors; node 3 is a sink

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "%% HyperDAG test\n"
            "% a comment\n"
            "\n"
            "nodes 2\n"
            "1 1\n"
            "2 1\n"
            "% another comment\n"
            "hyperedges 1\n"
            "0 1\n"
        )
        dag = loads_hyperdag(text)
        assert dag.num_nodes == 2
        assert dag.has_edge(0, 1)

    def test_malformed_header_rejected(self):
        with pytest.raises(DagError):
            loads_hyperdag("vertices 3\n")

    def test_truncated_file_rejected(self):
        with pytest.raises(DagError):
            loads_hyperdag("nodes 2\n1 1\n")

    def test_cyclic_hyperdag_rejected(self):
        text = "nodes 2\n1 1\n1 1\nhyperedges 2\n0 1\n1 0\n"
        with pytest.raises(DagError):
            loads_hyperdag(text)

    def test_hyperedge_without_successor_rejected(self):
        text = "nodes 1\n1 1\nhyperedges 1\n0\n"
        with pytest.raises(DagError):
            loads_hyperdag(text)

    @pytest.mark.parametrize(
        "text, number",
        [
            pytest.param("nodes x\n", 1, id="node_count"),
            pytest.param("nodes 2.0\n1 1\n1 1\nhyperedges 0\n", 1, id="node_count_float"),
            pytest.param("nodes 2\n1 1\n1 z\nhyperedges 0\n", 3, id="comm"),
            pytest.param("nodes 2\n1 1\nz 1\nhyperedges 0\n", 3, id="work"),
            pytest.param("nodes 2\n1 1\n1 1\nhyperedges x\n", 4, id="hyperedge_count"),
            pytest.param("nodes 1\n1 1\nhyperedges -1\n", 3, id="negative_hyperedge_count"),
            pytest.param("nodes 2\n1 1\n1 1\nhyperedges 1\n0 1.0\n", 5, id="edge_id_float"),
            pytest.param("nodes 2\n1 1\n1 1\nhyperedges 1\nzero 1\n", 5, id="edge_id_word"),
            pytest.param("nodes 2\nnan 1\n1 1\nhyperedges 0\n", 2, id="nan_work"),
            pytest.param("nodes 2\n1 1\n1 inf\nhyperedges 0\n", 3, id="inf_comm"),
            pytest.param("nodes 2\n-inf 1\n1 1\nhyperedges 0\n", 2, id="negative_inf_work"),
            # comment and blank lines count: the number is the file's line
            pytest.param("%% HyperDAG t\n% comment\n\nnodes 1\n1 NaN\nhyperedges 0\n", 5, id="after_comments"),
        ],
    )
    def test_malformed_field_names_its_line(self, text, number):
        """Non-numeric counts, weights and ids and non-finite weights are typed errors."""
        with pytest.raises(DagError, match=rf"^line {number}: "):
            loads_hyperdag(text)

    def test_mutated_file_loads_or_raises_dag_error(self):
        """Seeded 1-3 character edits of an fft(8) file never escape untyped."""
        text = dumps_hyperdag(build_fft_dag(8).dag)
        rng = random.Random(0)
        alphabet = "0123456789 .-+eEnaifxz%\n"
        for _ in range(1000):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars))
                edit = rng.random()
                if edit < 0.5:
                    chars[i] = rng.choice(alphabet)
                elif edit < 0.75:
                    del chars[i]
                else:
                    chars.insert(i, rng.choice(alphabet))
            try:
                dag = loads_hyperdag("".join(chars))
            except DagError:
                continue
            weights = dag.work_weights.tolist() + dag.comm_weights.tolist()
            assert all(math.isfinite(w) for w in weights)


class TestDotExport:
    def test_dag_to_dot_mentions_all_nodes_and_edges(self):
        dag = build_diamond_dag()
        dot = dag_to_dot(dag)
        assert dot.startswith("digraph")
        for v in dag.nodes():
            assert f"n{v} [" in dot
        assert "n0 -> n1;" in dot

    def test_schedule_to_dot_clusters_by_superstep(self):
        dag = build_diamond_dag()
        machine = BspMachine.uniform(2, latency=1)
        schedule = BspSchedule(dag, machine, [0, 0, 1, 0], [0, 1, 1, 2])
        dot = schedule_to_dot(schedule)
        assert "cluster_superstep_0" in dot
        assert "cluster_superstep_2" in dot

    def test_write_dot(self, tmp_path):
        dag = build_diamond_dag()
        path = tmp_path / "dag.dot"
        write_dot(dag_to_dot(dag), path)
        assert path.read_text().startswith("digraph")


class TestTextRendering:
    def test_render_schedule_text(self):
        dag = build_diamond_dag()
        machine = BspMachine.uniform(2, g=2, latency=1)
        schedule = BspSchedule(dag, machine, [0, 0, 1, 0], [0, 1, 1, 2])
        text = render_schedule_text(schedule)
        assert "superstep 0" in text
        assert "proc 0" in text
        assert "total cost" in text
        assert "p1->p0" in text or "p0->p1" in text

    def test_render_schedule_truncates_long_cells(self):
        dag = ComputationalDAG(30)
        machine = BspMachine.uniform(1, latency=0)
        schedule = BspSchedule.trivial(dag, machine)
        text = render_schedule_text(schedule, max_nodes_per_cell=5)
        assert "(+25)" in text

    def test_render_cost_table(self):
        dag = build_diamond_dag()
        machine = BspMachine.uniform(2, latency=1)
        schedules = {
            "trivial": BspSchedule.trivial(dag, machine),
            "split": BspSchedule(dag, machine, [0, 0, 1, 0], [0, 1, 1, 2]),
        }
        table = render_cost_table(schedules)
        assert "trivial" in table
        assert "split" in table
        assert "cost" in table
