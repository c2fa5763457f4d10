"""Out-of-core pipeline benchmarks: streaming generation and mmap load.

Two measurements, one per leg of the out-of-core DAG pipeline:

* **generation** — peak RSS (``ru_maxrss``) of producing a million-node
  stencil ``.hdagb`` file, streamed through
  :class:`~repro.io.hdagb.StreamingDagWriter` (spilled edge blocks,
  bounded memory) vs materialising the whole
  :class:`~repro.core.dag.ComputationalDAG` first and writing it out.
  Each phase runs in its own subprocess because ``ru_maxrss`` is monotone
  within a process.  The comparison is differential: both phases must
  produce byte-identical files (same content fingerprint) before their
  peaks are recorded.
* **load** — wall time of opening a 10^5-node instance from the ``.hdag``
  text format (full parse) vs the memory-mapped ``.hdagb`` binary
  (header, an O(n + m) structural check and the payload checksum;
  arrays are zero-copy views).  This is the latency every solve of a
  file-reference request pays before it starts.

Results (timings, peaks and speedups) are printed and persisted under
``benchmarks/results/bench_outofcore.json``.

Run directly (``PYTHONPATH=src python benchmarks/bench_outofcore.py``) or
through pytest; the pytest entry points assert the acceptance floors
(streamed peak well below the materialised peak, >= 50x mmap load), each
overridable via environment variables for loaded CI runners.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for direct execution
from _bench_utils import save_json

from repro.io import load_dag
from repro.io.hyperdag import read_hyperdag, write_hyperdag

#: million-node space-time stencil: side^2 * steps nodes
GENERATION_SIDE = int(os.environ.get("REPRO_BENCH_OOC_SIDE", "500"))
GENERATION_STEPS = int(os.environ.get("REPRO_BENCH_OOC_STEPS", "4"))
#: streamed peak RSS must stay below the materialised peak by this factor
GENERATION_MEMORY_FACTOR = float(os.environ.get("REPRO_BENCH_OOC_MEM_FACTOR", "2.0"))
#: 10^5-node instance for the load-latency comparison
LOAD_SIDE, LOAD_STEPS = 100, 10
MMAP_ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_MMAP_SPEEDUP", "50.0"))

_SRC_DIR = Path(__file__).parent.parent / "src"

# one subprocess per generation phase: ru_maxrss never decreases, so the
# streamed and materialised paths cannot share an interpreter
_PHASE_TEMPLATE = """\
import json, resource, sys, time
sys.path.insert(0, {src!r})
from repro.dagdb.stream import stream_generate
from repro.dagdb.structured import build_stencil2d_dag
from repro.io.hdagb import write_hdagb

t0 = time.perf_counter()
fingerprint = None
if {kind!r} == "streamed":
    fingerprint = stream_generate(
        {out!r}, "stencil2d", side={side}, steps={steps}, tmp_dir={tmp!r},
        block_edges={block_edges},
    )
elif {kind!r} == "inmemory":
    dag = build_stencil2d_dag({side}, {steps}).dag
    fingerprint = write_hdagb(dag, {out!r})
elapsed = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "fingerprint": fingerprint,
    "seconds": elapsed,
    "peak_rss_mb": peak_kb / 1024.0,
}}))
"""


def _run_generation_phase(kind: str, out: Path, tmp: Path) -> dict:
    code = _PHASE_TEMPLATE.format(
        src=str(_SRC_DIR),
        kind=kind,
        out=str(out),
        side=GENERATION_SIDE,
        steps=GENERATION_STEPS,
        tmp=str(tmp),
        block_edges=1 << 18,
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_generation() -> dict:
    """Peak-RSS comparison: streamed vs materialised million-node generation."""
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        # the import footprint of the interpreter is the same in both
        # phases; peaks are compared above it so the ratio measures the
        # pipeline, not numpy's shared libraries
        baseline = _run_generation_phase("baseline", tmp / "unused", tmp)
        streamed = _run_generation_phase("streamed", tmp / "streamed.hdagb", tmp)
        materialised = _run_generation_phase("inmemory", tmp / "inmemory.hdagb", tmp)
        streamed_bytes = (tmp / "streamed.hdagb").stat().st_size
        if (tmp / "streamed.hdagb").read_bytes() != (tmp / "inmemory.hdagb").read_bytes():
            raise AssertionError("streamed and materialised .hdagb files differ")
        dag = load_dag(tmp / "streamed.hdagb")
        base_mb = baseline["peak_rss_mb"]
        streamed_mb = max(streamed["peak_rss_mb"] - base_mb, 1e-9)
        inmemory_mb = max(materialised["peak_rss_mb"] - base_mb, 1e-9)
        record = {
            "num_nodes": dag.num_nodes,
            "num_edges": dag.num_edges,
            "file_mb": streamed_bytes / 2**20,
            "fingerprint": streamed["fingerprint"],
            "baseline_rss_mb": base_mb,
            "streamed_peak_rss_mb": streamed_mb,
            "inmemory_peak_rss_mb": inmemory_mb,
            "streamed_s": streamed["seconds"],
            "inmemory_s": materialised["seconds"],
            # the headline figure: how much smaller the streamed peak is
            "speedup": inmemory_mb / streamed_mb,
        }
        del dag  # release the mmap before the directory is removed
    return record


def bench_load() -> dict:
    """Load latency: .hdag text parse vs zero-copy .hdagb mmap."""
    from repro.dagdb.structured import build_stencil2d_dag
    from repro.io.hdagb import write_hdagb

    dag = build_stencil2d_dag(LOAD_SIDE, LOAD_STEPS).dag
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        write_hyperdag(dag, tmp / "dag.hdag")
        write_hdagb(dag, tmp / "dag.hdagb")

        text_s = min(
            _timed(lambda: read_hyperdag(tmp / "dag.hdag")) for _ in range(3)
        )
        mmap_s = min(
            _timed(lambda: load_dag(tmp / "dag.hdagb")) for _ in range(20)
        )
        from repro.api.request import dag_fingerprint

        parsed = read_hyperdag(tmp / "dag.hdag")
        mapped = load_dag(tmp / "dag.hdagb")
        assert dag_fingerprint(parsed) == dag_fingerprint(mapped)
        record = {
            "num_nodes": dag.num_nodes,
            "num_edges": dag.num_edges,
            "text_mb": (tmp / "dag.hdag").stat().st_size / 2**20,
            "binary_mb": (tmp / "dag.hdagb").stat().st_size / 2**20,
            "text_parse_s": text_s,
            "mmap_load_s": mmap_s,
            "speedup": text_s / mmap_s,
        }
        del mapped
    return record


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


_CACHE: dict[str, dict] = {}


def _section(name: str, fn) -> dict:
    if name not in _CACHE:
        _CACHE[name] = fn()
    return _CACHE[name]


# ---------------------------------------------------------------------- #
# pytest entry points (acceptance floors)
# ---------------------------------------------------------------------- #
def test_streamed_generation_bounded_memory():
    record = _section("generation", bench_generation)
    # steps sweeps plus the initial grid layer
    assert record["num_nodes"] == GENERATION_SIDE**2 * (GENERATION_STEPS + 1)
    assert record["num_nodes"] >= 1_000_000
    assert record["speedup"] >= GENERATION_MEMORY_FACTOR, (
        f"streamed peak {record['streamed_peak_rss_mb']:.0f} MB is not "
        f"{GENERATION_MEMORY_FACTOR}x below the materialised "
        f"{record['inmemory_peak_rss_mb']:.0f} MB"
    )


def test_mmap_load_speedup():
    record = _section("load", bench_load)
    assert record["speedup"] >= MMAP_ACCEPTANCE_SPEEDUP, (
        f"mmap load is only {record['speedup']:.1f}x faster than the text "
        f"parse (floor {MMAP_ACCEPTANCE_SPEEDUP}x)"
    )


def main() -> None:
    generation = _section("generation", bench_generation)
    print(
        f"generation ({generation['num_nodes']} nodes, "
        f"{generation['file_mb']:.0f} MB file): streamed peak "
        f"{generation['streamed_peak_rss_mb']:.0f} MB vs materialised "
        f"{generation['inmemory_peak_rss_mb']:.0f} MB "
        f"({generation['speedup']:.1f}x smaller)"
    )
    load = _section("load", bench_load)
    print(
        f"load ({load['num_nodes']} nodes): text parse {load['text_parse_s']:.3f} s "
        f"vs mmap {load['mmap_load_s'] * 1e3:.2f} ms ({load['speedup']:.0f}x)"
    )
    path = save_json("bench_outofcore", {"generation": generation, "load": load})
    print(f"recorded -> {path}")


if __name__ == "__main__":
    main()
