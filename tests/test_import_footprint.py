"""Only a MILP solve loads scipy's solver stack; only a pool loads the pool.

``scipy.optimize`` and ``scipy.sparse`` are imported inside
:meth:`repro.schedulers.ilp.backend.MilpProblem.solve`, and
``concurrent.futures.process`` inside :func:`repro.core.parallel.parallel_map`
once it starts a pool.  Importing the package, or solving with a scheduler
that has no ILP stage, must load neither.  Importing the package loads no
seed walker from ``tests/oracles`` either.  Each check runs in a fresh
interpreter, because this test process has long since loaded all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: the modules a process pays for only when it solves a MILP or starts a pool
LAZY = ("scipy.optimize", "scipy.sparse", "concurrent.futures.process")

IMPORTS = "import repro, repro.api, repro.dagdb, repro.schedulers, repro.cli\n"

REQUEST = """
from repro.api import MachineSpec, ScheduleRequest, SchedulerSpec, SchedulingService
from repro.dagdb import build_fft_dag
from repro.schedulers import PipelineConfig

def request(name, params=None, size=8):
    return ScheduleRequest(
        dag=build_fft_dag(size, track_roles=False).dag,
        machine=MachineSpec(4, g=3, latency=5),
        scheduler=SchedulerSpec(name, params or {}),
    )
"""

REPORT = """
import json, sys
print(json.dumps({"loaded": [name for name in %r if name in sys.modules],
                  "scipy": "scipy" in sys.modules, "out": OUT}))
""" % (LAZY,)


def _run(script: str, *extra_path: str) -> dict:
    """Run ``script`` (which sets ``OUT``) in a fresh interpreter; its report."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, *extra_path, os.environ.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_importing_the_package_loads_no_solver_and_no_pool():
    report = _run(IMPORTS + "OUT = None\n")
    assert report["scipy"], "scipy is a hard dependency, imported with the package"
    assert report["loaded"] == []


def test_importing_the_package_loads_no_seed_walker():
    """The seed walkers live in ``tests/oracles``.  With that directory on the
    path, so that a stray import of one would succeed, importing the
    package still loads none of them."""
    tests = str(Path(__file__).resolve().parent)
    report = _run(IMPORTS + "import sys\nOUT = sorted(sys.modules)\n", tests)
    assert "repro.cli" in report["out"]
    assert [name for name in report["out"] if name.split(".")[0] == "oracles"] == []
    assert [name for name in report["out"] if name.endswith((".reference", ".dynorder"))] == []


def test_solves_without_an_ilp_stage_load_no_solver_and_no_pool():
    script = IMPORTS + REQUEST + """
service = SchedulingService(cache_size=0)
no_clock = PipelineConfig(use_ilp=False, local_search_seconds=None)
requests = [
    request("framework_heuristics", {"local_search_seconds": None}),
    request("multilevel", {"config": no_clock}),
    request("cilk"),
    request("etf"),
    request("hdagg"),
]
OUT = [service.solve(r).scheduler for r in requests]
OUT.append(len(service.solve_many(requests, workers=1)))
"""
    report = _run(script)
    assert report["out"] == ["framework_heuristics", "multilevel", "cilk", "etf", "hdagg", 5]
    assert report["loaded"] == []


FRAMEWORK = REQUEST + """
from repro.schedulers.ilp import backend

calls = []
solve = backend.MilpProblem.solve

def counting(problem, *args, **kwargs):
    calls.append(problem.num_variables)
    return solve(problem, *args, **kwargs)

backend.MilpProblem.solve = counting
config = PipelineConfig(
    ilp_node_limit=1,
    local_search_seconds=None,
    ilp_full_seconds=None,
    ilp_partial_seconds=None,
    ilp_comm_seconds=None,
    ilp_init_seconds=None,
)
framework = request("framework", {"config": config}, size=2)
result = SchedulingService(cache_size=0).solve(framework)
OUT = {
    "canonical": json.dumps(result.canonical_dict(), sort_keys=True),
    "solves": sum(1 for variables in calls if variables),
}
"""


def test_a_milp_solve_loads_the_solver_and_changes_no_result():
    """Loading scipy.optimize at the first solve gives the same bytes as
    a process that imported it before anything else."""
    lazy = _run("import json\n" + FRAMEWORK)
    eager = _run("import json\nimport scipy.optimize, scipy.sparse\n" + FRAMEWORK)
    assert lazy["out"]["solves"] > 0
    assert lazy["loaded"] == ["scipy.optimize", "scipy.sparse"]
    assert lazy["out"] == eager["out"]
