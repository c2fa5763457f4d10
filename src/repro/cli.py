"""Command-line interface for the scheduling framework.

Three subcommands cover the common workflows:

``generate``
    Create a computational DAG with one of the database generators and write
    it as a hyperDAG text file or a memory-mapped ``.hdagb`` binary, e.g.::

        python -m repro generate --generator cg --size 8 --density 0.3 \\
            --iterations 3 --output cg.hdag

    With ``--stream`` (structured families only) the DAG is emitted straight
    to disk with bounded peak memory — the way to produce the 10^6..10^7-node
    instances::

        python -m repro generate --generator stencil2d --size 1000 \\
            --iterations 9 --stream --output stencil.hdagb

``schedule``
    Schedule a hyperDAG file (or a freshly generated instance) with one of
    the registered schedulers and print the schedule and its cost, e.g.::

        python -m repro schedule cg.hdag --scheduler framework \\
            --procs 8 --g 1 --latency 5 --numa-delta 3 --render

``compare``
    Run several schedulers on the same instance and print a cost table::

        python -m repro compare cg.hdag --procs 4 --g 5 \\
            --schedulers cilk hdagg framework

``queue``
    Inspect and manage a durable work queue (:mod:`repro.store`): show
    status, submit a request JSON file, expire abandoned leases, list
    terminal failures, requeue them, or garbage-collect the store::

        python -m repro queue --root ./results status

``store``
    Maintain a content-addressed result store; currently one subcommand,
    ``gc`` (also reachable as ``queue gc``), which removes dangling
    results, orphaned DAG payloads and stale write temporaries::

        python -m repro store --root ./results gc

``serve-worker``
    Drain a durable work queue into its content-addressed result store —
    run any number of these (concurrently, on any hosts sharing the
    filesystem) to form a worker fleet; killed workers lose nothing::

        python -m repro serve-worker --root ./results --workers 4

``report``
    Render the deterministic HTML experiment report (per-family cost
    profiles, scheduler rank tables, kernel speedup trajectory and
    regression flags — :mod:`repro.analysis.report`) from a result
    store's trial tables and the repo's ``BENCH_*.json`` history::

        python -m repro report --store ./results --out report.html

    ``--fail-on-regression`` exits non-zero when any BENCH metric
    drifted beyond tolerance — the CI gate.  ``--serve`` starts the
    dashboard server on the same report instead of (or after) writing
    the file.

``web serve``
    The dashboard server on its own (:mod:`repro.web.server`): serves
    ``/report`` (rebuilt per request), ``/families/<name>`` and
    ``/healthz`` over stdlib ``wsgiref``::

        python -m repro web serve --store ./results --port 8000

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
from .core import ComputationalDAG, ConfigurationError
from .dagdb import (
    COARSE_GENERATORS,
    FINE_GENERATORS,
    STREAM_GENERATORS,
    STRUCTURED_GENERATORS,
    SparseMatrixPattern,
    build_fft_dag,
    build_stencil2d_dag,
    build_stencil3d_dag,
    build_stencil_dag,
    stream_generate,
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
        + sorted(COARSE_GENERATORS)
        + sorted(STRUCTURED_GENERATORS),
        help=(
            "fine-grained (spmv/exp/cg/knn), coarse-grained or structured "
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
    generate.add_argument(
        "--stream",
        action="store_true",
        help=(
            "emit straight to a .hdagb file with bounded peak memory "
            "(structured generators only; implies --out-format hdagb)"
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

    queue = subparsers.add_parser(
        "queue", help="inspect and manage a durable work queue"
    )
    queue.add_argument(
        "--root", required=True, help="store root (results, DAGs and queue live under it)"
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    queue_sub.add_parser("status", help="entry counts per state and store size")
    queue_submit = queue_sub.add_parser(
        "submit", help="enqueue a ScheduleRequest JSON file"
    )
    queue_submit.add_argument("request", help="request JSON file (ScheduleRequest.to_json)")
    queue_expire = queue_sub.add_parser(
        "expire", help="requeue leases abandoned by dead workers"
    )
    queue_expire.add_argument(
        "--lease-seconds",
        type=float,
        default=300.0,
        help="lease duration assumed for entries without a lease stamp",
    )
    queue_expire.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts before an expired entry fails terminally",
    )
    queue_sub.add_parser("failures", help="list terminal failures")
    queue_sub.add_parser("retry", help="requeue every terminal failure")
    _add_gc_arguments(
        queue_sub.add_parser(
            "gc", help="garbage-collect the store this queue lives in"
        )
    )

    store_cmd = subparsers.add_parser(
        "store", help="maintain a content-addressed result store"
    )
    store_cmd.add_argument(
        "--root", required=True, help="store root (results, DAGs and queue live under it)"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    _add_gc_arguments(
        store_sub.add_parser(
            "gc",
            help=(
                "remove dangling results, orphaned DAG payloads and stale "
                "write temporaries"
            ),
        )
    )

    serve = subparsers.add_parser(
        "serve-worker",
        help="drain a durable work queue into its result store",
    )
    serve.add_argument(
        "--root", required=True, help="store root (results, DAGs and queue live under it)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool width per batch (default: the REPRO_WORKERS environment knob)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=300.0,
        help="lease duration per claimed batch",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="lease attempts before an entry fails terminally",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="entries claimed per cycle (default: 4 x the worker count)",
    )
    serve.add_argument(
        "--poll-seconds",
        type=float,
        default=1.0,
        help="sleep between idle cycles while other workers hold leases",
    )
    serve.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="stop after this many lease cycles (default: run until empty)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="run a single expire/lease/solve/settle cycle and exit",
    )

    report = subparsers.add_parser(
        "report",
        help="render the HTML experiment report from a store and BENCH history",
    )
    _add_report_source_arguments(report)
    report.add_argument(
        "--out",
        default="report.html",
        help="output HTML path (default: report.html)",
    )
    report.add_argument(
        "--serve",
        action="store_true",
        help="serve the dashboard for this store instead of exiting",
    )
    _add_serve_arguments(report)
    report.add_argument(
        "--fail-on-regression",
        action="store_true",
        help=(
            "exit non-zero when any BENCH metric drifted beyond tolerance "
            "(the CI gate; the report is still written first)"
        ),
    )

    web = subparsers.add_parser(
        "web", help="the report dashboard server (stdlib wsgiref)"
    )
    web_sub = web.add_subparsers(dest="web_command", required=True)
    web_serve = web_sub.add_parser(
        "serve", help="serve /report, /families/<name> and /healthz"
    )
    _add_report_source_arguments(web_serve)
    _add_serve_arguments(web_serve)
    return parser


def _add_report_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help=(
            "result store directory whose trial tables feed the report "
            "(omit for a BENCH-only report)"
        ),
    )
    parser.add_argument(
        "--bench-root",
        default=".",
        help=(
            "directory holding the BENCH_*.json history "
            "(default: the current directory; 'none' disables the "
            "trajectory and regression sections)"
        ),
    )
    parser.add_argument(
        "--speedup-tolerance",
        type=float,
        default=0.5,
        help=(
            "relative drop in a kernel speedup row that raises a "
            "regression flag (generous by default: timings are noisy)"
        ),
    )
    parser.add_argument(
        "--cost-tolerance",
        type=float,
        default=0.05,
        help=(
            "relative rise in a benchmark final_cost row that raises a "
            "regression flag (tight by default: costs are deterministic)"
        ),
    )


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="dashboard bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8000,
        help="dashboard port (0 picks an ephemeral port)",
    )


def _add_gc_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tmp-grace-seconds",
        type=float,
        default=3600.0,
        help=(
            "only remove write temporaries older than this (protects "
            "in-flight writes of live processes)"
        ),
    )
    parser.add_argument(
        "--prune-trials",
        action="store_true",
        help=(
            "also compact the trial/experiment metadata tables, dropping "
            "records whose results no longer exist (the tables are never "
            "touched without this flag)"
        ),
    )


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
            # they encode the ordering in the DAG name, which the streaming
            # path (--stream) reproduces for byte-identical files
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
    return COARSE_GENERATORS[args.generator](args.iterations)


def _stream_params(args: argparse.Namespace) -> dict:
    """Streaming-emitter parameters from the argparse namespace.

    Mirrors the size adapters of :func:`_generate_dag` exactly, so a
    streamed file is byte-identical to writing the in-memory generator's
    DAG for the same CLI arguments.
    """
    if args.generator in ("cholesky", "cholesky_rcm", "cholesky_amd"):
        pattern = SparseMatrixPattern.random(
            args.size, args.density, seed=args.seed, ensure_diagonal=True
        )
        return {"pattern": pattern}
    if args.generator == "fft":
        return {"points": 1 << max(1, args.size - 1).bit_length()}
    if args.generator == "fft4":
        points = 4
        while points < args.size:
            points *= 4
        return {"points": points}
    if args.generator == "stencil2d":
        return {"side": args.size, "steps": args.iterations}
    if args.generator == "stencil2d_rect":
        return {
            "width": max(2, args.size),
            "height": max(2, args.size // 2),
            "steps": args.iterations,
        }
    return {"side": args.size, "steps": args.iterations}  # stencil3d


def _command_generate(args: argparse.Namespace) -> int:
    out_format = args.out_format
    if out_format == "auto":
        if args.stream or args.output.endswith(".hdagb"):
            out_format = "hdagb"
        else:
            out_format = "hdag"
    if args.stream:
        if out_format != "hdagb":
            raise ConfigurationError("--stream writes .hdagb files; use --out-format hdagb")
        if args.generator not in STREAM_GENERATORS:
            raise ConfigurationError(
                f"generator {args.generator!r} has no streaming emitter; "
                f"available: {', '.join(sorted(STREAM_GENERATORS))}"
            )
        stream_generate(args.output, args.generator, **_stream_params(args))
        mapped = load_dag(args.output)
        print(
            f"wrote {args.output}: {mapped.num_nodes} nodes, "
            f"{mapped.num_edges} edges (streamed)"
        )
        return 0
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
        Path(args.output).write_text(result.to_json(indent=2), encoding="utf-8")
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


def _command_queue(args: argparse.Namespace) -> int:
    from .store import ResultStore, WorkQueue

    queue = WorkQueue(args.root)
    if args.queue_command == "status":
        stats = queue.stats()
        store = ResultStore(args.root)
        print(f"store:   {len(store)} result(s) under {store.root}")
        print(f"pending: {stats['pending']}")
        print(f"leased:  {stats['leased']}")
        print(f"failed:  {stats['failed']}")
        return 0
    if args.queue_command == "submit":
        request = ScheduleRequest.from_json(
            Path(args.request).read_text(encoding="utf-8")
        )
        fingerprint = request.fingerprint()
        if ResultStore(args.root).contains(fingerprint):
            print(f"{fingerprint} already stored; not enqueued")
            return 0
        if queue.submit(fingerprint, request.to_dict()):
            print(f"enqueued {fingerprint}")
            return 0
        print(f"{fingerprint} already queued or terminally failed; not enqueued")
        return 1
    if args.queue_command == "expire":
        requeued, failed = queue.expire_leases(
            max_attempts=args.max_attempts, lease_seconds=args.lease_seconds
        )
        print(f"requeued {len(requeued)}, terminally failed {len(failed)}")
        return 0
    if args.queue_command == "failures":
        failures = queue.failures()
        for fingerprint, error in failures.items():
            print(f"{fingerprint}: {error}")
        print(f"{len(failures)} terminal failure(s)")
        return 0
    if args.queue_command == "gc":
        return _run_store_gc(args)
    retried = queue.retry_failed()  # "retry"
    print(f"requeued {len(retried)} failed entries")
    return 0


def _run_store_gc(args: argparse.Namespace) -> int:
    from .store import ResultStore

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
            f"pruned {report['dropped_trials']} trial record(s) and "
            f"{report['dropped_experiments']} experiment record(s) whose "
            "results are gone"
        )
    return 0


def _command_store(args: argparse.Namespace) -> int:
    return _run_store_gc(args)  # "gc" is the only store subcommand


def _command_serve_worker(args: argparse.Namespace) -> int:
    from .store import Dispatcher

    dispatcher = Dispatcher(
        args.root,
        workers=args.workers,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        batch_size=args.batch_size,
    )
    if args.once:
        report = dispatcher.run_once()
    else:
        report = dispatcher.drain(
            poll_seconds=args.poll_seconds, max_batches=args.max_batches
        )
    print(
        f"worker {dispatcher.owner}: {len(report.completed)} completed, "
        f"{len(report.skipped)} already stored, {len(report.failed)} failed, "
        f"{len(report.requeued)} requeued over {report.batches} batch(es)"
    )
    for fingerprint, error in sorted(report.failed.items()):
        print(f"  failed {fingerprint}: {error}", file=sys.stderr)
    return 1 if report.failed else 0


def _bench_root_from_args(args: argparse.Namespace) -> str | None:
    return None if args.bench_root.lower() == "none" else args.bench_root


def _serve_dashboard(args: argparse.Namespace) -> int:
    from .web import make_app, serve

    app = make_app(
        args.store,
        _bench_root_from_args(args),
        speedup_tolerance=args.speedup_tolerance,
        cost_tolerance=args.cost_tolerance,
    )
    server = serve(app, host=args.host, port=args.port)
    print(
        f"dashboard on http://{args.host}:{server.server_port}/report "
        "(ctrl-c to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from .analysis.report import build_report, render_html
    from .store.fsio import atomic_write_text

    report = build_report(
        args.store,
        _bench_root_from_args(args),
        speedup_tolerance=args.speedup_tolerance,
        cost_tolerance=args.cost_tolerance,
    )
    atomic_write_text(Path(args.out), render_html(report))
    print(
        f"report written to {args.out}: {report.num_trials} trial(s), "
        f"{len(report.families)} families, {len(report.trajectory)} BENCH "
        f"record(s), {len(report.flags)} regression flag(s)"
    )
    for flag in report.flags:
        print(f"  REGRESSION {flag.describe()}", file=sys.stderr)
    if args.serve:
        return _serve_dashboard(args)
    if args.fail_on_regression and report.has_regressions:
        return 1
    return 0


def _command_web(args: argparse.Namespace) -> int:
    return _serve_dashboard(args)  # "serve" is the only web subcommand


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "generate": _command_generate,
        "schedule": _command_schedule,
        "compare": _command_compare,
        "queue": _command_queue,
        "store": _command_store,
        "serve-worker": _command_serve_worker,
        "report": _command_report,
        "web": _command_web,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
