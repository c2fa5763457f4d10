"""``.hdagb`` load benchmark: memory-mapped binary vs hyperDAG text parse.

Wall time of opening a 10^5-node instance from the ``.hdag`` text format
(full parse) vs the memory-mapped ``.hdagb`` binary (header, an
O(n + m) structural check and the payload checksum; arrays are
zero-copy views).  This is the latency every solve of a file-reference
request pays before it starts.  Both loads must give the same content
fingerprint before their times are compared.

Results (timings and speedup) are printed and persisted under
``benchmarks/results/bench_hdagb_load.json``.

Run directly (``PYTHONPATH=src python benchmarks/bench_hdagb_load.py``) or
through pytest; the pytest entry point asserts the acceptance floor
(>= 50x mmap load), overridable via ``REPRO_BENCH_MIN_MMAP_SPEEDUP`` for
loaded CI runners.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for direct execution
from _bench_utils import save_json

from repro.api.request import dag_fingerprint
from repro.dagdb.structured import build_stencil2d_dag
from repro.io import load_dag, write_hdagb
from repro.io.hyperdag import read_hyperdag, write_hyperdag

#: 10^5-node instance for the load-latency comparison
LOAD_SIDE, LOAD_STEPS = 100, 10
MMAP_ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_MMAP_SPEEDUP", "50.0"))


def bench_load() -> dict:
    """Load latency: .hdag text parse vs zero-copy .hdagb mmap."""
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
        del mapped  # release the mmap before the directory is removed
    return record


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_mmap_load_speedup():
    record = bench_load()
    assert record["speedup"] >= MMAP_ACCEPTANCE_SPEEDUP, (
        f"mmap load is only {record['speedup']:.1f}x faster than the text "
        f"parse (floor {MMAP_ACCEPTANCE_SPEEDUP}x)"
    )


def main() -> None:
    load = bench_load()
    print(
        f"load ({load['num_nodes']} nodes): text parse {load['text_parse_s']:.3f} s "
        f"vs mmap {load['mmap_load_s'] * 1e3:.2f} ms ({load['speedup']:.0f}x)"
    )
    path = save_json("bench_hdagb_load", {"load": load})
    print(f"recorded -> {path}")


if __name__ == "__main__":
    main()
