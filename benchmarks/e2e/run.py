#!/usr/bin/env python3
"""Pinned end-to-end solve benchmark of the scheduler pipeline.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                  # every workload, one subprocess each
    python3 benchmarks/e2e/run.py --seed 1 --trace          # per-layer numbers from spans
    python3 benchmarks/e2e/run.py --workload heur_mid --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --quick --check           # smallest case per workload, pinned costs

One workload run sets up ``SETUP_REPEATS`` times (build instances,
fingerprint the requests, warm-up solves), then cycles through its cases
with serial ``SchedulingService(cache_size=0).solve`` calls until
``--seconds`` have passed, at least once per case.  Every result is
checked: its canonical bytes must repeat exactly across repeats, and the
first result of each case must pass the independent oracle
(``oracle.py``).  A traced run (``--trace 1``) spends the first half of its
time untraced and the second half under the span tracer (``spans.py``),
so the tracing overhead and any result tracing changed are both measured.

Every reported time is *host-normalised*: a fixed calibration probe runs
between the timed blocks, and each block's wall time is scaled by
``PROBE_REF_S / probe`` (see :class:`HostSpeed`).  The raw wall times and
the scale factors are kept in the run record.

Each run prints every metric with its unit, writes one JSON record (with
host metadata) under ``--out``, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or the per-layer metrics when traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected_costs.json"
#: workload -> the host-speed probe its solve time tracks (see HostSpeed)
WORKLOADS = {"heur_mid": "interp", "ilp_small": "lp", "ml_numa": "interp", "batch_tiny": "interp"}
SETUP_REPEATS = 3
#: used when BENCHMARK.json is not readable
DEFAULT_SECONDS = 20.0
#: a workload subprocess taking longer than this is a failure
CHILD_TIMEOUT = 600
#: duration of one calibration probe on the reference host (a 2-vCPU Xeon
#: VM at its quiet speed): the unit of every host-normalised time
PROBE_REF_S = {"interp": 0.0017, "lp": 0.0037}
#: solves share one pair of calibration probes for at most this long
SLOT_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "suite_s": "s",
    "solve_s_p50": "s",
    "cost_geomean": "cost",
    "cost_ratio_cilk": "ratio",
    "peak_rss_mb": "MB",
}
#: the one workload with cases enough for a tail percentile (220); its
#: ``solve_s_p98`` is printed and recorded, but is not an end-to-end metric
#: of BENCHMARK.json, which lists only what every workload reports
TAIL_WORKLOAD = "batch_tiny"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics from a traced run",
    )
    parser.add_argument("--quick", action="store_true", help="one solve of the smallest case")
    parser.add_argument("--check", action="store_true", help="fail when a cost drifts from expected_costs.json")
    parser.add_argument("--update-expected", action="store_true", help="pin this run's costs in expected_costs.json")
    parser.add_argument("--out", type=Path, default=HERE / "runs", help="directory for run records")
    return parser.parse_args(argv)


def _default_seconds() -> float:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return float(spec["run_seconds"])
    except (OSError, ValueError, KeyError):
        return DEFAULT_SECONDS


# ---------------------------------------------------------------------- #
# all workloads: one fresh subprocess each, one at a time
# ---------------------------------------------------------------------- #
def _run_all(args: argparse.Namespace, seconds: float) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        command += [flag for flag, on in (
            ("--quick", args.quick), ("--check", args.check),
            ("--update-expected", args.update_expected),
        ) if on]
        print(f"== {name}", flush=True)
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
            summary["correct"] = False
            if not lines or not lines[-1].startswith("{"):
                continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status if summary["correct"] else 1


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
class HostSpeed:
    """A fixed calibration probe, timed between blocks of measured work.

    The benchmark host is a VM whose neighbours change its speed by up to
    2x within minutes, and CPU time moves with wall time, so no clock
    removes the drift.  A probe runs no program code and slows down with
    the host: a block's wall time times ``PROBE_REF_S[kind] / mean(probe
    before, probe after)`` is its duration at reference-host speed.

    Interpreted code and HiGHS's compiled simplex slow down by different
    amounts, so there are two probes: ``interp`` (an interpreter loop with
    small numpy calls, the mix of a heuristic solve) and ``lp`` (one fixed
    dense LP through scipy's HiGHS, for ILP-bound workloads).
    """

    def __init__(self, kind: str) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._ref = PROBE_REF_S[kind]
        if kind == "lp":
            from scipy.optimize import Bounds, LinearConstraint, milp

            matrix = rng.integers(1, 10, (50, 100)).astype(float)
            rows = LinearConstraint(matrix, -np.inf, 0.3 * matrix.sum(axis=1))
            objective = -rng.random(100)
            self._run = lambda: milp(objective, constraints=rows, bounds=Bounds(0, 1))
        else:
            self._values = rng.random(512)
            self._index = rng.integers(0, 512, 256)
            self._run = self._interp
        self._last = self._probe()

    def _interp(self) -> None:
        np = self._np
        acc = 0
        table = {}
        for i in range(6000):
            acc += i * i % 7
            table[i & 255] = acc
            if i % 25 == 0:
                work = np.maximum(self._values, self._values[::-1])
                np.add.at(work, self._index, 1.0)
                int(work.argmax())

    def _probe(self) -> float:
        started = time.perf_counter()
        self._run()
        return time.perf_counter() - started

    def mark(self) -> None:
        """Probe now: the start of a measured block."""
        self._last = self._probe()

    def scale(self) -> float:
        """Probe again; the factor for the block since the previous probe."""
        before, self._last = self._last, self._probe()
        return self._ref / ((before + self._last) / 2)


def _import_program() -> tuple[float, float]:
    """Import the program from this checkout's ``src``: ``(seconds, factor)``.

    Importing is interpreter work, so it is timed against the ``interp``
    probe on every workload.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    speed = HostSpeed("interp")
    started = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.dagdb  # noqa: F401
    import repro.schedulers  # noqa: F401

    elapsed = time.perf_counter() - started
    factor = speed.scale()
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"benchmark: imported repro from {repro.__file__}, not {SRC}")
    return elapsed, factor


@dataclass
class Phase:
    """The timed solves of one measuring phase (traced or not).

    ``samples`` are host-normalised seconds, ``raw`` the wall seconds and
    ``factors`` the scale between them, per case and repeat.
    """

    samples: list[list[float]]
    raw: list[list[float]]
    factors: list[list[float]]
    roots: list[list[int]]
    attempts: list[int]
    failures: list[int]
    errors: list[str] = field(default_factory=list)

    @classmethod
    def empty(cls, n: int) -> "Phase":
        return cls(
            *([[] for _ in range(n)] for _ in range(4)), [0] * n, [0] * n
        )

    def medians(self) -> list[float]:
        """Each solved case's median time."""
        return [statistics.median(s) for s in self.samples if s]

    def suite_s(self) -> float:
        return sum(self.medians())


def _canonical_digest(result) -> str:
    payload = json.dumps(result.canonical_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _measure(cases, service, seconds, once, firsts, digests, speed, tracer=None) -> Phase:
    """Cycle through ``cases`` until ``seconds`` pass (one pass at least).

    Solves run in slots of at most ``SLOT_S`` between two calibration
    probes.  ``firsts``/``digests`` hold each case's first result and its
    canonical digest across phases; a later result with other bytes is a
    failure.
    """
    from repro.api import ScheduleRequest

    n = len(cases)
    phase = Phase.empty(n)
    deadline = time.perf_counter() + seconds
    count = 0

    def more() -> bool:
        return count < n or (not once and time.perf_counter() < deadline)

    speed.mark()
    while more():
        slot: list[tuple[int, float, int]] = []
        slot_end = time.perf_counter() + SLOT_S
        while more() and (not slot or time.perf_counter() < slot_end):
            pos = count % n
            count += 1
            case = cases[pos]
            phase.attempts[pos] += 1
            root = len(tracer.spans) if tracer is not None else -1
            try:
                with tracer.recording() if tracer is not None else nullcontext():
                    started = time.perf_counter()
                    result = service.solve(ScheduleRequest(case.dag, case.machine, case.spec))
                    elapsed = time.perf_counter() - started
                digest = _canonical_digest(result)
            except Exception as exc:  # a failing solve is counted, not fatal
                phase.failures[pos] += 1
                phase.errors.append(f"{case.key}: {type(exc).__name__}: {exc}")
                continue
            if digests[pos] is None:
                firsts[pos], digests[pos] = result, digest
            elif digest != digests[pos]:
                phase.failures[pos] += 1
                phase.errors.append(f"{case.key}: result bytes changed across repeats")
                continue
            slot.append((pos, elapsed, root))
        factor = speed.scale()
        for pos, elapsed, root in slot:
            phase.samples[pos].append(elapsed * factor)
            phase.raw[pos].append(elapsed)
            phase.factors[pos].append(factor)
            phase.roots[pos].append(root)
    return phase


def _setup(workload: str, seed: int, service, speed: HostSpeed):
    """Build the cases, fingerprint their requests and warm up.

    Returns the cases, the wall seconds and their host scale factor.
    """
    from repro.api import ScheduleRequest
    from workloads import build_cases

    speed.mark()
    started = time.perf_counter()
    cases = build_cases(workload, seed)
    for case in cases:
        ScheduleRequest(case.dag, case.machine, case.spec).fingerprint()
    smallest: dict[str, object] = {}
    for case in cases:
        best = smallest.get(case.spec.name)
        if best is None or case.dag.num_nodes < best.dag.num_nodes:
            smallest[case.spec.name] = case
    for case in smallest.values():
        service.solve(ScheduleRequest(case.dag, case.machine, case.spec))
    elapsed = time.perf_counter() - started
    return cases, elapsed, speed.scale()


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _end_to_end(phase: Phase, setup_s: float, costs: list[float], ratios: list[float]) -> dict:
    """The end-to-end metrics; ``costs`` and ``ratios`` of the unseeded cases only."""
    # the percentile is over the cases, each at its median solve time: every
    # case weighs the same however many repeats fit, and repeat noise drops out
    medians = phase.medians()
    values = {
        "setup_s": setup_s,
        "suite_s": sum(medians),
        "solve_s_p50": statistics.median(medians),
        "cost_geomean": _geomean(costs),
        "cost_ratio_cilk": _geomean(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def _per_layer(tracer, phase: Phase, untraced_suite_s: float) -> dict:
    """Per-layer metrics: per case, the median over its traced solves; summed."""
    from spans import layer_metrics

    per_solve = tracer.per_solve()
    suite: dict[str, float] = {}
    for roots, factors in zip(phase.roots, phase.factors):
        rows = [
            {
                key: value * factor if key.endswith((":self", ":incl")) else value
                for key, value in per_solve[root].items()
            }
            for root, factor in zip(roots, factors)
        ]
        for key in {key for row in rows for key in row}:
            suite[key] = suite.get(key, 0.0) + statistics.median(row.get(key, 0.0) for row in rows)
    traced_suite_s = phase.suite_s()
    return layer_metrics(suite, traced_suite_s, traced_suite_s / untraced_suite_s)


def _host() -> dict:
    import numpy
    import scipy

    from repro.core import kernels

    sha = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.get_backend(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def _check_pinned(workload: str, seed: int, costs: dict[str, float]) -> list[str]:
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8")).get(str(seed), {}).get(workload)
    if pinned is None:
        return [f"no pinned costs for {workload} at seed {seed}"]
    drift = []
    for key, cost in costs.items():
        if key not in pinned:
            drift.append(f"{workload} {key}: no pinned cost")
        elif pinned[key] != cost:
            drift.append(f"{workload} {key}: cost {cost} drifted from pinned {pinned[key]}")
    return drift


def _update_pinned(workload: str, seed: int, costs: dict[str, float]) -> None:
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    pinned.setdefault(str(seed), {}).setdefault(workload, {}).update(costs)
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _oracle_errors(cases, firsts, phases) -> list[str]:
    """Run the oracle on each case's first result; a failing case fails every solve."""
    import oracle

    errors = []
    for pos, (case, result) in enumerate(zip(cases, firsts)):
        if result is None:
            continue
        problems = oracle.check(case.dag, case.machine.build(), result.schedule_dict(), result.cost)
        if problems:
            errors.extend(f"{case.key}: {problem}" for problem in problems[:3])
            for phase in phases:
                phase.failures[pos] = phase.attempts[pos]
    return errors


def _cilk_costs(cases, firsts, service) -> dict[tuple[str, str], float]:
    """Cilk's cost per (instance, machine): from the run, else solved untimed."""
    from repro.api import ScheduleRequest
    from workloads import CILK

    cilk = {
        (case.instance, case.machine.label()): result.cost
        for case, result in zip(cases, firsts)
        if case.spec.name == "cilk" and result is not None
    }
    for case in cases:
        ref = (case.instance, case.machine.label())
        if ref not in cilk:
            cilk[ref] = service.solve(ScheduleRequest(case.dag, case.machine, CILK)).cost
    return cilk


def _run_workload(args: argparse.Namespace, seconds: float) -> int:
    os.environ.pop("REPRO_INIT_WORKERS", None)
    import_raw, import_factor = _import_program()
    from repro.api import SchedulingService
    from spans import Tracer

    speed = HostSpeed(WORKLOADS[args.workload])
    service = SchedulingService(cache_size=0)
    setups = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        cases, elapsed, factor = _setup(args.workload, args.seed, service, speed)
        setups.append((elapsed, factor))
    setup_s = import_raw * import_factor + statistics.median(e * f for e, f in setups)
    if args.quick:
        cases = [min(
            (case for case in cases if case.spec.name != "cilk" and not case.seeded),
            key=lambda case: case.dag.num_nodes,
        )]

    n = len(cases)
    firsts: list = [None] * n
    digests: list = [None] * n
    phase_seconds = seconds / 2 if args.trace else seconds
    phases = [_measure(cases, service, phase_seconds, args.quick, firsts, digests, speed)]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            phases.append(
                _measure(cases, service, phase_seconds, args.quick, firsts, digests, speed, tracer)
            )
        finally:
            tracer.uninstall()

    errors = [error for phase in phases for error in phase.errors]
    errors += _oracle_errors(cases, firsts, phases)
    cilk = _cilk_costs(cases, firsts, service)

    solved = [(case, result) for case, result in zip(cases, firsts) if result is not None]
    costs = {case.key: result.cost for case, result in solved}
    # the cost metrics leave the seeded cases out: over the rest they are
    # the same for every seed, so any change in them is the program's
    fixed = [(case, result) for case, result in solved if not case.seeded]
    ratios = [
        result.cost / cilk[(case.instance, case.machine.label())]
        for case, result in fixed
        if case.spec.name != "cilk"
    ]
    attempted = sum(sum(phase.attempts) for phase in phases)
    failed = sum(sum(phase.failures) for phase in phases)
    end_to_end = _end_to_end(phases[0], setup_s, [result.cost for _, result in fixed], ratios)
    extra = {}
    if args.workload == TAIL_WORKLOAD:
        import numpy as np

        extra["solve_s_p98"] = {
            "value": float(np.percentile(phases[0].medians(), 98)), "unit": "s",
        }
    metrics = end_to_end
    if tracer is not None:
        metrics = _per_layer(tracer, phases[1], phases[0].suite_s())

    record = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "quick": args.quick,
        "created": time.time(),
        "host": _host(),
        "probe_ref_s": PROBE_REF_S,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:100],
        "metrics": metrics,
        "end_to_end": end_to_end,
        "extra": extra,
        "setup": {
            "import": [import_raw, import_factor],
            "repeats": setups,
        },
        "cases": [
            {
                "key": case.key,
                "seeded": case.seeded,
                "nodes": case.dag.num_nodes,
                "edges": case.dag.num_edges,
                "cost": None if result is None else result.cost,
                "cilk_cost": cilk[(case.instance, case.machine.label())],
                "digest": digest,
                "samples": [phase.samples[pos] for phase in phases],
                "raw": [phase.raw[pos] for phase in phases],
            }
            for pos, (case, result, digest) in enumerate(zip(cases, firsts, digests))
        ],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(args.out / f"{stem}.spans.json")

    status = 0
    if args.update_expected:
        _update_pinned(args.workload, args.seed, costs)
    if args.check:
        drift = _check_pinned(args.workload, args.seed, costs)
        errors.extend(drift)
        status = 1 if drift else 0

    factors = [f for phase in phases for fs in phase.factors for f in fs]
    print(f"workload {args.workload}  seed {args.seed}  cases {n}  "
          f"solves {attempted}  failed {failed}  host scale {statistics.median(factors):.3f}  "
          f"record {stem}.json")
    for error in errors[:20]:
        print(f"  error: {error}")
    shown = dict(end_to_end, **extra, **(metrics if tracer is not None else {}))
    for name, metric in shown.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    if args.workload is None:
        return _run_all(args, seconds)
    return _run_workload(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
