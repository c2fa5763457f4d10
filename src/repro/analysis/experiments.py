"""Experiment harness reproducing the paper's evaluation (Section 6/7, Appendix C).

The harness separates three concerns:

* :class:`MachineSpec` — a machine-parameter point of the evaluation grid
  (``P``, ``g``, ``ℓ`` and the optional NUMA multiplier ``Δ``);
* :class:`ExperimentRunner` — turns one instance × machine point into a
  batch of content-addressed :class:`~repro.api.ScheduleRequest`\\ s,
  solves them through the shared :class:`~repro.api.SchedulingService`,
  and records every cost of interest in an :class:`InstanceRecord`;
* the ``run_*`` convenience functions — assemble the instance sets and the
  machine grids of the individual tables/figures and return the records the
  table formatters in :mod:`repro.analysis.tables` aggregate.

Every driver is one :meth:`~repro.api.SchedulingService.solve_many` batch
over the whole grid, which makes tables **resumable artifacts**: pass
``store=`` (a :class:`repro.store.ResultStore` root) and every solved
request persists content-addressed on disk — re-running the same grid
skips everything already stored (``service.cache_info()['misses']`` counts
the actual scheduler invocations) and reproduces the records, and hence
the rendered tables, byte-for-byte.  ``workers=N`` fans the batch's
misses out over a process pool on this host; each result reaches the store
as soon as it is harvested, in request order, so a killed run loses only
the misses not yet harvested.

All sizes default to the scaled-down ``"bench"`` datasets so the complete
harness runs in seconds; passing ``scale="paper"`` restores the original
node-count intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from ..api import ScheduleRequest, ScheduleResult, SchedulerSpec, SchedulingService
from ..core.machine import MachineSpec
from ..core.parallel import default_workers
from ..dagdb.datasets import DatasetInstance, build_dataset, build_training_set
from ..schedulers.bsp_greedy import BspGreedyScheduler
from ..schedulers.ilp import IlpInitScheduler
from ..schedulers.pipeline import PipelineConfig
from ..schedulers.source_heuristic import SourceScheduler
from .metrics import geometric_mean

__all__ = [
    "MachineSpec",
    "InstanceRecord",
    "ExperimentRunner",
    "run_grid",
    "no_numa_machine_grid",
    "numa_machine_grid",
    "run_no_numa_grid",
    "run_numa_grid",
    "run_latency_sweep",
    "run_huge_experiment",
    "run_initializer_comparison",
    "run_multilevel_ratio_experiment",
    "aggregate_improvement",
    "aggregate_ratio",
]


# ---------------------------------------------------------------------- #
# machine grid (the MachineSpec point itself now lives in repro.core.machine,
# shared with the service API's wire format; re-exported here for callers)
# ---------------------------------------------------------------------- #
def no_numa_machine_grid(
    procs: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5.0,
) -> list[MachineSpec]:
    """The uniform-BSP machine grid of Section 7.1."""
    return [MachineSpec(p, g, latency) for p in procs for g in g_values]


def numa_machine_grid(
    procs: Sequence[int] = (8, 16),
    deltas: Sequence[float] = (2, 3, 4),
    g: float = 1.0,
    latency: float = 5.0,
) -> list[MachineSpec]:
    """The NUMA machine grid of Section 7.2 (``g = 1``, binary-tree hierarchy)."""
    return [MachineSpec(p, g, latency, delta) for p in procs for delta in deltas]


# ---------------------------------------------------------------------- #
# per-instance results
# ---------------------------------------------------------------------- #
@dataclass
class InstanceRecord:
    """All recorded costs for one instance on one machine point."""

    instance: str
    dataset: str
    generator: str
    num_nodes: int
    spec: MachineSpec
    costs: dict[str, float] = field(default_factory=dict)

    def ratio(self, key: str, baseline: str) -> float:
        """Cost ratio ``costs[key] / costs[baseline]``."""
        return self.costs[key] / self.costs[baseline]


class ExperimentRunner:
    """Runs the baselines and the framework on instance × machine points.

    Parameters
    ----------
    config:
        Pipeline configuration (time limits, ILP thresholds).
    include_list_baselines:
        Also run BL-EST and ETF (needed for Tables 7 and 8).
    include_multilevel:
        Also run the multilevel pipeline (``ML`` column of Figure 6).
    include_trivial:
        Record the cost of the trivial one-processor schedule.
    heuristics_only:
        Disable every ILP stage (the configuration used for the huge dataset).
    hc_max_passes / hc_max_steps / hccs_max_passes:
        Per-grid-point refinement budget: every pipeline invocation (one per
        instance x machine point) runs its HC/HCcs local search under these
        caps.  ``None`` keeps the configuration's values.  The huge-dataset
        driver uses this to bound refinement work deterministically instead
        of relying only on wall-clock budgets (which make parallel grids
        load-dependent).
    store:
        Optional persistent result store (a :class:`repro.store.ResultStore`
        or its root path).  Every solved request is persisted there and
        consulted before computing, making whole experiment grids
        *resumable*: a re-run (same instances, machines, configuration and
        seeds — i.e. the same request fingerprints) performs zero scheduler
        invocations and reproduces the records bit-for-bit.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        include_list_baselines: bool = False,
        include_multilevel: bool = False,
        include_trivial: bool = False,
        heuristics_only: bool = False,
        seed: int = 0,
        hc_max_passes: int | None = None,
        hc_max_steps: int | None = None,
        hccs_max_passes: int | None = None,
        store: str | Path | None = None,
    ) -> None:
        # own copy: the overrides below must not leak into a caller-shared config
        self.config = replace(config) if config is not None else PipelineConfig()
        if heuristics_only:
            self.config.use_ilp = False
            self.config.use_comm_ilp = False
        if hc_max_passes is not None:
            self.config.hc_max_passes = hc_max_passes
        if hc_max_steps is not None:
            self.config.hc_max_steps = hc_max_steps
        if hccs_max_passes is not None:
            self.config.hccs_max_passes = hccs_max_passes
        self.include_list_baselines = include_list_baselines
        self.include_multilevel = include_multilevel
        self.include_trivial = include_trivial
        self.seed = seed
        self.store = store
        self._service: SchedulingService | None = None

    # ------------------------------------------------------------------ #
    @property
    def service(self) -> SchedulingService:
        """The per-runner scheduling service (created lazily, per process).

        The grid never repeats an (instance, machine, scheduler) triple, so
        the runner disables the service's in-memory result cache and relies
        on the persistent store tier (when configured) for resumability;
        everything else — declarative specs, budget threading, stage traces
        — goes through the one facade every other caller uses.
        """
        if self._service is None:
            self._service = SchedulingService(cache_size=0, store=self.store)
        return self._service

    def __getstate__(self) -> dict:
        # the lazily-created service never crosses a process boundary; each
        # pool worker builds its own on first use
        state = self.__dict__.copy()
        state["_service"] = None
        return state

    def _request(
        self, instance: DatasetInstance, spec: MachineSpec, name: str, params=None
    ) -> ScheduleRequest:
        return ScheduleRequest(
            dag=instance.dag,
            machine=spec,
            scheduler=SchedulerSpec(name, params or {}),
            seed=self.seed,
        )

    def instance_requests(
        self, instance: DatasetInstance, spec: MachineSpec
    ) -> list[tuple[str, ScheduleRequest]]:
        """The keyed request batch for one instance/machine point.

        This is the *definition* of a grid point: both drivers — the serial
        :meth:`run_instance` and the pool-parallel :func:`run_grid` batch —
        expand points through this one method, so they solve (and
        fingerprint) exactly the same requests.
        """
        keyed = [
            ("cilk", self._request(instance, spec, "cilk")),
            ("hdagg", self._request(instance, spec, "hdagg")),
        ]
        if self.include_list_baselines:
            keyed.append(("bl_est", self._request(instance, spec, "bl_est")))
            keyed.append(("etf", self._request(instance, spec, "etf")))
        if self.include_trivial:
            keyed.append(("trivial", self._request(instance, spec, "trivial")))
        keyed.append(
            ("framework", self._request(instance, spec, "framework", {"config": self.config}))
        )
        if self.include_multilevel:
            keyed.append(
                (
                    "multilevel",
                    self._request(instance, spec, "multilevel", {"config": self.config}),
                )
            )
        return keyed

    def record_from_results(
        self,
        instance: DatasetInstance,
        spec: MachineSpec,
        keyed_results: Iterable[tuple[str, ScheduleResult]],
    ) -> InstanceRecord:
        """Assemble one :class:`InstanceRecord` from solved keyed requests.

        The ``framework`` result expands into the four pipeline stage costs
        (``init``/``hccs``/``ilp``/``final``); every other key records its
        result's total cost under its own name.
        """
        costs: dict[str, float] = {}
        for key, result in keyed_results:
            if key == "framework":
                assert result.stages is not None
                costs["init"] = result.stages.best_init
                costs["hccs"] = result.stages.after_local_search
                costs["ilp"] = result.stages.after_ilp_assignment
                costs["final"] = result.stages.final
            else:
                costs[key] = result.cost
        return InstanceRecord(
            instance=instance.name,
            dataset=instance.name.split("_", 1)[0],
            generator=instance.generator,
            num_nodes=instance.num_nodes,
            spec=spec,
            costs=costs,
        )

    def run_instance(self, instance: DatasetInstance, spec: MachineSpec) -> InstanceRecord:
        """Run every configured scheduler on one instance/machine pair."""
        keyed = self.instance_requests(instance, spec)
        results = self.service.solve_many(
            [request for _, request in keyed], workers=1
        )
        return self.record_from_results(
            instance, spec, zip((key for key, _ in keyed), results)
        )

    def run(
        self,
        instances: Iterable[DatasetInstance],
        specs: Iterable[MachineSpec],
        workers: int | None = None,
        experiment: str | None = None,
    ) -> list[InstanceRecord]:
        """Cartesian product of instances and machine points.

        ``workers`` > 1 distributes the grid over a process pool; see
        :func:`run_grid` for the guarantees (including the ``experiment``
        metadata record written for store-backed runs).
        """
        return run_grid(self, instances, specs, workers=workers, experiment=experiment)


# ---------------------------------------------------------------------- #
# grid execution as one service batch (pool mechanics live behind the
# service API's ``solve_many`` — see repro.core.parallel)
# ---------------------------------------------------------------------- #
def _default_workers() -> int:
    """Worker count from the ``REPRO_WORKERS`` environment knob (default 1)."""
    return default_workers()


def _grid_batches(
    runner: "ExperimentRunner",
    instances: Iterable[DatasetInstance],
    specs: Iterable[MachineSpec],
) -> list[tuple[DatasetInstance, MachineSpec, list[tuple[str, ScheduleRequest]]]]:
    """Expand the grid into per-point keyed request batches (serial order)."""
    specs = list(specs)
    return [
        (instance, spec, runner.instance_requests(instance, spec))
        for instance in instances
        for spec in specs
    ]


def run_grid(
    runner: "ExperimentRunner",
    instances: Iterable[DatasetInstance],
    specs: Iterable[MachineSpec],
    workers: int | None = None,
    experiment: str | None = None,
) -> list[InstanceRecord]:
    """Run the ``instances × specs`` grid as one ``solve_many`` batch.

    Every request of the grid is independent and content-addressed, so the
    whole grid flattens into a single batch against the runner's
    :class:`~repro.api.SchedulingService`: the service deduplicates repeated
    fingerprints, answers anything already in its persistent store
    (``runner.store``) without computing, and fans the remaining misses out
    over the shared process-pool machinery.  Results always come back in
    the deterministic serial order — instance-major, spec-minor —
    regardless of ``workers``.  When the pipeline configuration is free of
    wall-clock budgets (``local_search_seconds=None`` and friends), every
    scheduler is deterministic and a parallel run reproduces the serial
    records bit-for-bit; with wall-clock budgets the *set* of grid points
    and their ordering are still identical, but local-search depth can vary
    with machine load, parallel or not.

    ``workers=None`` reads the ``REPRO_WORKERS`` environment variable
    (default 1 = serial).  If the platform cannot provide a process pool
    (no ``fork``/``spawn``, sandboxed interpreter, unpicklable
    configuration), the batch gracefully falls back to serial execution
    with a warning instead of failing; exceptions raised by the experiment
    itself cancel the remaining grid points and propagate promptly.

    ``experiment`` names the batch in the store's metadata tables: for a
    store-backed runner an :class:`~repro.store.ExperimentRecord` listing
    every fingerprint of the grid is appended to ``experiments.jsonl``
    (see :mod:`repro.store.trials`), so the report subsystem can group
    this grid's trials under that name.  Without a store it is ignored.
    """
    batches = _grid_batches(runner, instances, specs)
    flat = [request for _, _, keyed in batches for _, request in keyed]
    results = runner.service.solve_many(flat, workers=workers)
    if experiment is not None and runner.service.store is not None:
        runner.service.store.trials.record_experiment(
            experiment,
            [request.fingerprint() for request in flat],
            metadata={"points": len(batches), "requests": len(flat)},
        )
    records: list[InstanceRecord] = []
    cursor = 0
    for instance, spec, keyed in batches:
        chunk = results[cursor : cursor + len(keyed)]
        cursor += len(keyed)
        records.append(
            runner.record_from_results(
                instance, spec, zip((key for key, _ in keyed), chunk)
            )
        )
    return records


# ---------------------------------------------------------------------- #
# aggregation helpers
# ---------------------------------------------------------------------- #
def aggregate_ratio(
    records: Iterable[InstanceRecord],
    key: str,
    baseline: str,
) -> float:
    """Geometric-mean cost ratio ``key / baseline`` over the records."""
    records = list(records)
    if not records:
        return float("nan")
    return geometric_mean(record.ratio(key, baseline) for record in records)


def aggregate_improvement(
    records: Iterable[InstanceRecord],
    key: str,
    baseline: str,
) -> float:
    """Improvement fraction of ``key`` over ``baseline`` (1 - geomean ratio)."""
    return 1.0 - aggregate_ratio(records, key, baseline)


# ---------------------------------------------------------------------- #
# experiment drivers (one per paper experiment family)
# ---------------------------------------------------------------------- #
def _dataset_instances(
    datasets: Sequence[str],
    scale: str,
    seed: int,
    max_instances_per_dataset: int | None = None,
) -> list[DatasetInstance]:
    instances: list[DatasetInstance] = []
    for dataset in datasets:
        members = build_dataset(dataset, scale=scale, seed=seed)
        if max_instances_per_dataset is not None and len(members) > max_instances_per_dataset:
            # keep a generator-diverse subset: round-robin over the generators
            by_generator: dict[str, list[DatasetInstance]] = {}
            for member in members:
                by_generator.setdefault(member.generator, []).append(member)
            picked: list[DatasetInstance] = []
            while len(picked) < max_instances_per_dataset:
                progress = False
                for group in by_generator.values():
                    if group and len(picked) < max_instances_per_dataset:
                        picked.append(group.pop(0))
                        progress = True
                if not progress:
                    break
            members = picked
        instances.extend(members)
    return instances


def run_no_numa_grid(
    datasets: Sequence[str] = ("tiny", "small", "medium", "large"),
    scale: str = "bench",
    procs: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5.0,
    config: PipelineConfig | None = None,
    include_list_baselines: bool = False,
    max_instances_per_dataset: int | None = None,
    seed: int = 7,
    workers: int | None = None,
    store: str | Path | None = None,
) -> list[InstanceRecord]:
    """The uniform-BSP experiment of Section 7.1 (Tables 1, 6–8; Figure 5)."""
    runner = ExperimentRunner(
        config=config,
        include_list_baselines=include_list_baselines,
        seed=seed,
        store=store,
    )
    instances = _dataset_instances(datasets, scale, seed, max_instances_per_dataset)
    return runner.run(
        instances, no_numa_machine_grid(procs, g_values, latency), workers=workers
    )


def run_numa_grid(
    datasets: Sequence[str] = ("tiny", "small", "medium", "large"),
    scale: str = "bench",
    procs: Sequence[int] = (8, 16),
    deltas: Sequence[float] = (2, 3, 4),
    g: float = 1.0,
    latency: float = 5.0,
    config: PipelineConfig | None = None,
    include_multilevel: bool = False,
    include_trivial: bool = False,
    max_instances_per_dataset: int | None = None,
    seed: int = 7,
    workers: int | None = None,
    store: str | Path | None = None,
) -> list[InstanceRecord]:
    """The NUMA experiment of Section 7.2/7.3 (Tables 2, 3, 10, 13, 14; Figure 6)."""
    runner = ExperimentRunner(
        config=config,
        include_multilevel=include_multilevel,
        include_trivial=include_trivial,
        seed=seed,
        store=store,
    )
    instances = _dataset_instances(datasets, scale, seed, max_instances_per_dataset)
    return runner.run(
        instances, numa_machine_grid(procs, deltas, g, latency), workers=workers
    )


def run_latency_sweep(
    dataset: str = "medium",
    scale: str = "bench",
    latencies: Sequence[float] = (2, 5, 10, 20),
    g: float = 1.0,
    procs: int = 8,
    config: PipelineConfig | None = None,
    max_instances: int | None = None,
    seed: int = 7,
    workers: int | None = None,
    store: str | Path | None = None,
) -> list[InstanceRecord]:
    """The latency experiment of Appendix C.3 (Table 9)."""
    runner = ExperimentRunner(config=config, seed=seed, store=store)
    instances = _dataset_instances((dataset,), scale, seed, max_instances)
    specs = [MachineSpec(procs, g, latency) for latency in latencies]
    return runner.run(instances, specs, workers=workers)


def run_huge_experiment(
    scale: str = "bench",
    numa: bool = False,
    procs: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    deltas: Sequence[float] = (2, 3, 4),
    latency: float = 5.0,
    local_search_seconds: float | None = 5.0,
    hc_max_steps: int | None = None,
    max_instances: int | None = None,
    seed: int = 7,
    workers: int | None = None,
    store: str | Path | None = None,
) -> list[InstanceRecord]:
    """The huge-dataset experiment of Appendix C.5 (Tables 11, 12; Figure 7).

    Only the non-ILP part of the framework is used, as in the paper.
    ``hc_max_steps`` bounds the accepted hill-climbing moves per grid point,
    which keeps parallel runs deterministic (a pure wall-clock budget makes
    the local-search depth depend on machine load).
    """
    config = PipelineConfig(
        use_ilp=False, use_comm_ilp=False, local_search_seconds=local_search_seconds
    )
    runner = ExperimentRunner(
        config=config,
        heuristics_only=True,
        seed=seed,
        hc_max_steps=hc_max_steps,
        store=store,
    )
    instances = _dataset_instances(("huge",), scale, seed, max_instances)
    if numa:
        specs = numa_machine_grid((8, 16), deltas, 1.0, latency)
    else:
        specs = no_numa_machine_grid(procs, g_values, latency)
    return runner.run(instances, specs, workers=workers)


# ---------------------------------------------------------------------- #
# initializer comparison (Tables 4 and 5)
# ---------------------------------------------------------------------- #
@dataclass
class InitializerWin:
    """Which initialiser produced the cheapest schedule for one run."""

    instance: str
    generator: str
    num_nodes: int
    spec: MachineSpec
    winner: str
    costs: dict[str, float]


def run_initializer_comparison(
    scale: str = "bench",
    procs: Sequence[int] = (4, 8, 16),
    g_values: Sequence[float] = (1, 3, 5),
    latency: float = 5.0,
    ilp_init_time: float | None = 5.0,
    seed: int = 11,
) -> list[InitializerWin]:
    """Compare BSPg, Source and ILPinit on the training set (Appendix C.1)."""
    wins: list[InitializerWin] = []
    instances = build_training_set(scale=scale, seed=seed)
    initializers = {
        "bsp_greedy": BspGreedyScheduler(),
        "source": SourceScheduler(),
        "ilp_init": IlpInitScheduler(time_limit_per_batch=ilp_init_time),
    }
    for instance in instances:
        for spec in no_numa_machine_grid(procs, g_values, latency):
            machine = spec.build()
            costs = {
                name: scheduler.schedule(instance.dag, machine).cost()
                for name, scheduler in initializers.items()
            }
            winner = min(costs, key=costs.get)
            wins.append(
                InitializerWin(
                    instance=instance.name,
                    generator=instance.generator,
                    num_nodes=instance.num_nodes,
                    spec=spec,
                    winner=winner,
                    costs=costs,
                )
            )
    return wins


# ---------------------------------------------------------------------- #
# multilevel coarsening-ratio experiment (Tables 13 and 14)
# ---------------------------------------------------------------------- #
def run_multilevel_ratio_experiment(
    datasets: Sequence[str] = ("small", "medium", "large"),
    scale: str = "bench",
    procs: Sequence[int] = (8, 16),
    deltas: Sequence[float] = (2, 3, 4),
    g: float = 1.0,
    latency: float = 5.0,
    config: PipelineConfig | None = None,
    max_instances_per_dataset: int | None = None,
    seed: int = 7,
    workers: int | None = None,
    store: str | Path | None = None,
) -> list[InstanceRecord]:
    """Run the multilevel scheduler at both coarsening ratios (Tables 13–14).

    The returned records contain ``cilk``, ``hdagg``, the base pipeline's
    ``final`` cost and the multilevel costs ``ml_c15``, ``ml_c30`` and
    ``ml_copt`` (the better of the two), mirroring the rows of Table 13/14.
    Like :func:`run_grid`, the whole experiment is one ``solve_many`` batch
    — resumable against ``store=`` and pool-parallel with ``workers``.
    """
    config = config or PipelineConfig()
    runner = ExperimentRunner(config=config, seed=seed, store=store)
    instances = _dataset_instances(datasets, scale, seed, max_instances_per_dataset)
    batches = _grid_batches(runner, instances, numa_machine_grid(procs, deltas, g, latency))
    for instance, spec, keyed in batches:
        for key, ratio in (("ml_c15", 0.15), ("ml_c30", 0.3)):
            keyed.append(
                (
                    key,
                    runner._request(
                        instance,
                        spec,
                        "multilevel",
                        {"config": config, "coarsening_ratios": [ratio]},
                    ),
                )
            )
    flat = [request for _, _, keyed in batches for _, request in keyed]
    results = runner.service.solve_many(flat, workers=workers)
    records: list[InstanceRecord] = []
    cursor = 0
    for instance, spec, keyed in batches:
        chunk = results[cursor : cursor + len(keyed)]
        cursor += len(keyed)
        record = runner.record_from_results(
            instance, spec, zip((key for key, _ in keyed), chunk)
        )
        record.costs["ml_copt"] = min(record.costs["ml_c15"], record.costs["ml_c30"])
        records.append(record)
    return records
