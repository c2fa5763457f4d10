"""Command-line interface for the scheduling framework.

Five subcommands cover the common workflows:

``generate``
    Create a computational DAG with one of the database generators and write
    it as a hyperDAG text file or a memory-mapped ``.hdagb`` binary, e.g.::

        python -m repro generate --generator cg --size 8 --density 0.3 \\
            --iterations 3 --output cg.hdag

``schedule``
    Schedule a hyperDAG file (or a freshly generated instance) with one of
    the registered schedulers and print the schedule and its cost, e.g.::

        python -m repro schedule cg.hdag --scheduler framework \\
            --procs 8 --g 1 --latency 5 --numa-delta 3 --render

``compare``
    Run several schedulers on the same instance and print a cost table::

        python -m repro compare cg.hdag --procs 4 --g 5 \\
            --schedulers cilk hdagg framework

``store``
    Maintain a content-addressed result store; currently one subcommand,
    ``gc``, which removes dangling results, orphaned DAG payloads and stale
    write temporaries::

        python -m repro store --root ./results gc

``report``
    Render the deterministic HTML experiment report (per-family cost
    profiles and scheduler rank tables — :mod:`repro.analysis.report`)
    from a result store's trial tables::

        python -m repro report --store ./results --out report.html

Both scheduling commands run through :class:`repro.api.SchedulingService`:
the argparse namespace becomes a declarative :class:`ScheduleRequest` and
``schedule --output`` writes the :class:`ScheduleResult` JSON wire format
(validated round-trippable by ``repro.api.ScheduleResult.from_json``).
``--store DIR`` on ``schedule``/``compare`` attaches the persistent result
store, so repeated invocations answer from disk instead of recomputing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .api import MachineSpec, ScheduleRequest, SchedulerSpec, SchedulingService
from .core import ComputationalDAG, ConfigurationError, ReproError
from .dagdb import (
    COARSE_GENERATORS,
    FINE_GENERATORS,
    STRUCTURED_GENERATORS,
    SparseMatrixPattern,
    build_fft_dag,
    build_stencil2d_dag,
    build_stencil3d_dag,
    build_stencil_dag,
)
from .io import (
    load_dag,
    render_cost_table,
    render_schedule_text,
    write_hdagb,
    write_hyperdag,
)
from .schedulers import available_schedulers

__all__ = ["main", "build_parser"]

#: the coarse-grained generators under their command-line names: the two
#: that share a name with a fine-grained generator are ``cg_coarse`` and
#: ``knn_coarse``
_CLI_COARSE_GENERATORS = {
    f"{name}_coarse" if name in FINE_GENERATORS else name: builder
    for name, builder in COARSE_GENERATORS.items()
}


# ---------------------------------------------------------------------- #
# argument parsing
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BSP(+NUMA) multiprocessor DAG scheduling framework",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a computational DAG")
    generate.add_argument(
        "--generator",
        required=True,
        choices=sorted(FINE_GENERATORS)
        + sorted(_CLI_COARSE_GENERATORS)
        + sorted(STRUCTURED_GENERATORS),
        help=(
            "fine-grained (spmv/exp/cg/knn), coarse-grained (cg_coarse/"
            "knn_coarse/pagerank/...) or structured "
            "(cholesky/fft/stencil2d/stencil3d) generator name"
        ),
    )
    generate.add_argument("--size", type=int, default=8, help="matrix size for fine-grained generators")
    generate.add_argument("--density", type=float, default=0.3, help="nonzero density for fine-grained generators")
    generate.add_argument("--iterations", type=int, default=3, help="iteration count")
    generate.add_argument("--seed", type=int, default=0, help="random seed for the matrix pattern")
    generate.add_argument("--output", required=True, help="output DAG file path")
    generate.add_argument(
        "--out-format",
        choices=("auto", "hdag", "hdagb"),
        default="auto",
        help=(
            "output format: hyperDAG text or memory-mapped .hdagb binary "
            "(default: by output extension, text otherwise)"
        ),
    )

    schedule = subparsers.add_parser("schedule", help="schedule a hyperDAG file")
    _add_machine_arguments(schedule)
    _add_store_argument(schedule)
    schedule.add_argument("input", help="DAG file to schedule (.hdag text, .hdagb binary, or stored .json)")
    schedule.add_argument(
        "--scheduler",
        default="framework",
        choices=available_schedulers(),
        help="scheduler to run (default: the framework pipeline)",
    )
    schedule.add_argument("--render", action="store_true", help="print the full superstep-by-superstep schedule")
    schedule.add_argument("--output", help="write the schedule (JSON) to this path")
    schedule.add_argument("--seed", type=int, default=0, help="seed for randomised schedulers")

    compare = subparsers.add_parser("compare", help="compare several schedulers on one instance")
    _add_machine_arguments(compare)
    _add_store_argument(compare)
    compare.add_argument("input", help="DAG file to schedule (.hdag text, .hdagb binary, or stored .json)")
    compare.add_argument(
        "--schedulers",
        nargs="+",
        default=["cilk", "hdagg", "framework"],
        choices=available_schedulers(),
        help="schedulers to compare",
    )
    compare.add_argument("--seed", type=int, default=0, help="seed for randomised schedulers")

    store_cmd = subparsers.add_parser(
        "store", help="maintain a content-addressed result store"
    )
    store_cmd.add_argument(
        "--root", required=True, help="store root (results and DAGs live under it)"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    gc = store_sub.add_parser(
        "gc",
        help=(
            "remove dangling results, orphaned DAG payloads and stale "
            "write temporaries"
        ),
    )
    gc.add_argument(
        "--tmp-grace-seconds",
        type=float,
        default=3600.0,
        help=(
            "only remove write temporaries older than this (protects "
            "in-flight writes of live processes)"
        ),
    )
    gc.add_argument(
        "--prune-trials",
        action="store_true",
        help=(
            "also compact the trial metadata table, dropping records "
            "whose results no longer exist (the table is never touched "
            "without this flag)"
        ),
    )

    report = subparsers.add_parser(
        "report",
        help="render the HTML experiment report from a store's trials",
    )
    report.add_argument(
        "--store",
        default=None,
        help=(
            "result store directory whose trial tables feed the report "
            "(omit for the empty report)"
        ),
    )
    report.add_argument(
        "--out",
        default="report.html",
        help="output HTML path (default: report.html)",
    )
    return parser


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help=(
            "content-addressed result store directory: answers repeated "
            "requests from disk and persists every computed result"
        ),
    )


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--procs", "-P", type=int, default=4, help="number of processors")
    parser.add_argument("--g", type=float, default=1.0, help="per-unit communication cost g")
    parser.add_argument("--latency", "-l", type=float, default=5.0, help="per-superstep latency")
    parser.add_argument(
        "--numa-delta",
        type=float,
        default=None,
        help="binary-tree NUMA multiplier Delta (omit for a uniform machine)",
    )


# ---------------------------------------------------------------------- #
# command implementations
# ---------------------------------------------------------------------- #
def _machine_spec_from_args(args: argparse.Namespace) -> MachineSpec:
    return MachineSpec(
        num_procs=args.procs,
        g=args.g,
        latency=args.latency,
        numa_delta=args.numa_delta,
    )


def _request_from_args(
    args: argparse.Namespace, scheduler: str
) -> ScheduleRequest:
    """One declarative request from the argparse namespace (the CLI's glue)."""
    return ScheduleRequest(
        dag=args.input,
        machine=_machine_spec_from_args(args),
        scheduler=SchedulerSpec(scheduler),
        seed=args.seed,
    )


def _generate_dag(args: argparse.Namespace) -> ComputationalDAG:
    if args.generator in FINE_GENERATORS:
        pattern = SparseMatrixPattern.random(
            args.size, args.density, seed=args.seed, ensure_diagonal=True
        )
        return FINE_GENERATORS[args.generator](pattern, args.iterations).dag
    if args.generator in STRUCTURED_GENERATORS:
        if args.generator in ("cholesky", "cholesky_rcm", "cholesky_amd"):
            pattern = SparseMatrixPattern.random(
                args.size, args.density, seed=args.seed, ensure_diagonal=True
            )
            # the registry builders, not build_elimination_dag(ordering=...):
            # they encode the ordering in the DAG name
            builder = STRUCTURED_GENERATORS[args.generator]
            return builder(pattern).dag
        if args.generator == "fft":
            points = 1 << max(1, args.size - 1).bit_length()  # round up to 2^k
            return build_fft_dag(points).dag
        if args.generator == "fft4":
            points = 4
            while points < args.size:
                points *= 4  # round up to 4^k
            return build_fft_dag(points, radix=4).dag
        if args.generator == "stencil2d":
            return build_stencil2d_dag(args.size, args.iterations).dag
        if args.generator == "stencil2d_rect":
            width = max(2, args.size)
            height = max(2, args.size // 2)
            return build_stencil_dag((width, height), args.iterations).dag
        if args.generator == "stencil3d":
            return build_stencil3d_dag(args.size, args.iterations).dag
        raise ConfigurationError(
            f"structured generator {args.generator!r} has no CLI size adapter"
        )
    return _CLI_COARSE_GENERATORS[args.generator](args.iterations)


def _command_generate(args: argparse.Namespace) -> int:
    out_format = args.out_format
    if out_format == "auto":
        out_format = "hdagb" if args.output.endswith(".hdagb") else "hdag"
    elif out_format == "hdag" and args.output.endswith(".hdagb"):
        # load_dag reads any .hdagb path as binary, so the file could not
        # be scheduled
        raise ConfigurationError(
            f"--out-format hdag cannot write {args.output!r}: a .hdagb path "
            "is read as the binary format"
        )
    dag = _generate_dag(args)
    if out_format == "hdagb":
        write_hdagb(dag, args.output)
    else:
        write_hyperdag(dag, args.output)
    print(
        f"wrote {args.output}: {dag.num_nodes} nodes, {dag.num_edges} edges, "
        f"depth {dag.depth()}"
    )
    return 0


def _command_schedule(args: argparse.Namespace) -> int:
    request = _request_from_args(args, args.scheduler)
    result = SchedulingService(store=args.store).solve(request)
    machine = request.build_machine()
    breakdown = result.breakdown
    cached = " [from store]" if result.cache_hit else ""
    print(
        f"{args.scheduler} on {machine.describe()}: cost {breakdown['total']:.2f} "
        f"(work {breakdown['work']:.2f}, comm {breakdown['comm']:.2f}, "
        f"latency {breakdown['latency']:.2f}, {result.num_supersteps} supersteps)"
        f"{cached}"
    )
    if args.render:
        print(render_schedule_text(result.to_schedule()))
    if args.output:
        # no indent: json.dumps uses its C encoder only when indent is None
        Path(args.output).write_text(result.to_json(), encoding="utf-8")
        print(f"schedule result written to {args.output}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    service = SchedulingService(store=args.store)
    # resolve the instance once and share the DAG (and its fingerprint
    # memo) across the whole batch instead of re-reading the file per
    # scheduler; load_dag dispatches on format (.hdagb binary, stored
    # .json payloads, hyperDAG text)
    dag = load_dag(args.input)
    machine_spec = _machine_spec_from_args(args)
    requests = [
        ScheduleRequest(
            dag=dag,
            machine=machine_spec,
            scheduler=SchedulerSpec(name),
            seed=args.seed,
        )
        for name in args.schedulers
    ]
    results = service.solve_many(requests)
    schedules = {
        name: result.to_schedule()
        for name, result in zip(args.schedulers, results)
    }
    machine = requests[0].build_machine()
    print(f"instance {args.input}: {dag.num_nodes} nodes on {machine.describe()}")
    print(render_cost_table(schedules))
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from .store import ResultStore

    # "gc" is the only store subcommand
    report = ResultStore(args.root).gc(
        tmp_grace_seconds=args.tmp_grace_seconds,
        prune_trials=args.prune_trials,
    )
    print(
        f"gc {args.root}: removed {len(report['removed_results'])} dangling "
        f"result(s), {len(report['removed_dags'])} orphaned DAG payload(s), "
        f"{len(report['removed_tmp'])} stale temporar"
        f"{'y' if len(report['removed_tmp']) == 1 else 'ies'}"
    )
    if args.prune_trials:
        print(
            f"pruned {report['dropped_trials']} trial record(s) whose "
            "results are gone"
        )
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from .analysis.report import build_report, render_html
    from .store.fsio import atomic_write_text

    report = build_report(args.store)
    atomic_write_text(Path(args.out), render_html(report))
    print(
        f"report written to {args.out}: {report.num_trials} trial(s), "
        f"{len(report.families)} families"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one CLI command and return its exit code.

    Typed errors propagate; :func:`run` turns them into one-line messages.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "generate": _command_generate,
        "schedule": _command_schedule,
        "compare": _command_compare,
        "store": _command_store,
        "report": _command_report,
    }
    return commands[args.command](args)


def run(argv: Sequence[str] | None = None) -> int:
    """Console entry point: :func:`main`, with typed errors as one line.

    A :class:`ReproError` (malformed input, a cyclic graph, a bad
    configuration) prints ``error: <Type>: <message>`` to stderr and exits
    with status 2 instead of a traceback.  :func:`main` itself keeps raising,
    for programmatic callers.
    """
    try:
        return main(argv)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(run())
