"""The experiment report: trial store + BENCH history -> one HTML file.

:func:`build_report` aggregates everything the repo records about
experiments — the trial/experiment tables of a
:class:`~repro.store.ResultStore` (see :mod:`repro.store.trials`) and the
repo-root ``BENCH_*.json`` trajectory (see
:mod:`repro.analysis.benchdata`) — into one plain :class:`Report` value;
:func:`render_html` turns it into a deterministic, self-contained HTML
page (inline SVG, no external assets; see :mod:`repro.analysis.htmlgen`).

Byte-stability is a hard guarantee, not an aspiration: two stores holding
the same trials render the same bytes, regardless of append order, file
paths, or when they were built.  Volatile fields (wall-clock timings,
``created_at`` stamps) are deliberately never rendered, iteration is
sorted everywhere, and provenance lines carry counts rather than paths.
The golden-file tests pin exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..store.results import ResultStore
from .aggregate import (
    FamilyProfile,
    RankTable,
    RegressionFlag,
    dedup_trials,
    family_profiles,
    rank_table,
    regression_flags,
    trajectory_summary,
)
from .benchdata import collect_backends, collect_trajectory
from .htmlgen import bar_chart, line_chart, page, section, table

__all__ = ["Report", "build_report", "render_html"]


@dataclass
class Report:
    """Everything the renderers need, already aggregated and sorted."""

    num_trials: int
    num_experiments: int
    experiments: list[tuple[str, int]]  # (name, num fingerprints)
    families: list[FamilyProfile]
    ranks: RankTable
    trajectory: list[tuple[int, float]]  # (pr, geomean speedup)
    backends: dict[int, str]
    flags: list[RegressionFlag] = field(default_factory=list)

    @property
    def has_regressions(self) -> bool:
        return bool(self.flags)


def build_report(
    store_root: str | Path | None,
    bench_root: str | Path | None = None,
    *,
    speedup_tolerance: float = 0.5,
    cost_tolerance: float = 0.05,
) -> Report:
    """Aggregate a store's trials and a BENCH trajectory into a report.

    Either side is optional: ``store_root=None`` (or a store with no
    trials) produces the "no trials yet" report, ``bench_root=None``
    skips the trajectory and regression sections.  Tolerances configure
    the regression flags — see :func:`repro.analysis.aggregate.regression_flags`.
    """
    trials = []
    experiments = []
    if store_root is not None:
        store = (
            store_root
            if isinstance(store_root, ResultStore)
            else ResultStore(store_root)
        )
        trials = dedup_trials(store.trials.trials())
        experiments = sorted(
            (record.name, len(record.fingerprints))
            for record in store.trials.experiments()
        )
    flags: list[RegressionFlag] = []
    trajectory: list[tuple[int, float]] = []
    backends: dict[int, str] = {}
    if bench_root is not None:
        trajectory = trajectory_summary(collect_trajectory(bench_root))
        backends = collect_backends(bench_root)
        flags = regression_flags(
            bench_root,
            speedup_tolerance=speedup_tolerance,
            cost_tolerance=cost_tolerance,
        )
    return Report(
        num_trials=len(trials),
        num_experiments=len(experiments),
        experiments=experiments,
        families=family_profiles(trials),
        ranks=rank_table(trials),
        trajectory=trajectory,
        backends=backends,
        flags=flags,
    )


# ---------------------------------------------------------------------- #
# section renderers (each returns an HTML fragment)
# ---------------------------------------------------------------------- #
def _overview_section(report: Report) -> str:
    rows = [
        ("trial records", report.num_trials),
        ("instance families", len(report.families)),
        ("named experiments", report.num_experiments),
        ("BENCH records", len(report.trajectory)),
        (
            "regression flags",
            ("html", f'<span class="flag">{len(report.flags)}</span>')
            if report.flags
            else ("html", '<span class="ok">0</span>'),
        ),
    ]
    body = table(["what", "count"], rows, numeric=(1,))
    if report.experiments:
        body += table(
            ["experiment", "requests"], report.experiments, numeric=(1,)
        )
    return section("Overview", body)


def _family_fragment(profile: FamilyProfile) -> str:
    rows = [
        (
            stats.scheduler,
            stats.trials,
            stats.geomean_cost,
            stats.geomean_ratio_to_best,
            stats.wins,
        )
        for stats in profile.schedulers
    ]
    chart = bar_chart(
        [stats.scheduler for stats in profile.schedulers],
        [stats.geomean_ratio_to_best for stats in profile.schedulers],
        caption=f"geomean cost ratio to best, family {profile.family}",
    )
    meta = (
        f'<p class="note">{profile.num_trials} trials over '
        f"{profile.num_instances} instances, "
        f"{profile.node_range[0]}&#8211;{profile.node_range[1]} nodes</p>"
    )
    return (
        meta
        + table(
            ["scheduler", "trials", "geomean cost", "ratio to best", "wins"],
            rows,
            numeric=(1, 2, 3, 4),
        )
        + chart
    )


def _families_section(report: Report) -> str:
    if not report.families:
        return section(
            "Cost profiles by family",
            '<p class="note">no trials yet &#8212; run solves against a '
            "store (or an experiment grid) to populate this section</p>",
        )
    parts = []
    for profile in report.families:
        parts.append(f"<h3>{profile.family}</h3>")
        parts.append(_family_fragment(profile))
    return section("Cost profiles by family", *parts)


def _ranks_section(report: Report) -> str:
    ranks = report.ranks
    if not ranks.entries:
        return section(
            "Scheduler ranking",
            '<p class="note">needs at least one comparison group '
            "(two schedulers on the same instance, machine, budget and "
            "seed)</p>",
        )
    body = table(
        ["rank", "scheduler", "mean rank", "blocks"],
        [
            (index + 1, entry.scheduler, entry.mean_rank, entry.blocks)
            for index, entry in enumerate(ranks.entries)
        ],
        numeric=(0, 2, 3),
    )
    if ranks.critical_difference is not None:
        cd = ranks.critical_difference
        if ranks.significant_pairs:
            pairs = "; ".join(
                f"{better} &#8810; {worse}"
                for better, worse in ranks.significant_pairs
            )
            verdict = f"significant at &#945;=0.05: {pairs}"
        else:
            verdict = "no pair separated at &#945;=0.05"
        body += (
            f'<p class="note">Nemenyi critical difference {cd:.3f} over '
            f"{ranks.num_blocks} complete blocks &#8212; {verdict}</p>"
        )
    names = sorted(
        set(ranks.wins)
        | {name for beaten in ranks.wins.values() for name in beaten}
    )
    if names:
        rows = []
        for first in names:
            row: list[object] = [first]
            for second in names:
                row.append(
                    "&#8212;"
                    if first == second
                    else ranks.wins.get(first, {}).get(second, 0)
                )
            rows.append(row)
        body += table(
            ["wins &#8595; over &#8594;", *names],
            rows,
            numeric=tuple(range(1, len(names) + 1)),
        )
    return section("Scheduler ranking", body)


def _trajectory_section(report: Report) -> str:
    if not report.trajectory:
        return section(
            "Kernel speedup trajectory",
            '<p class="note">no BENCH_*.json records found</p>',
        )
    chart = line_chart(
        [(float(pr), value) for pr, value in report.trajectory],
        x_label="PR",
        y_label="geomean speedup",
        caption="geomean kernel speedup per PR",
    )
    rows = [
        (pr, value, report.backends.get(pr, "-"))
        for pr, value in report.trajectory
    ]
    return section(
        "Kernel speedup trajectory",
        chart,
        table(["PR", "geomean speedup", "backend"], rows, numeric=(0, 1)),
        '<p class="note">PR numbering is gap-tolerant: only PRs that '
        "recorded a BENCH file appear, and drift comparisons pair each row "
        "with its most recent earlier record</p>",
    )


def _flags_section(report: Report) -> str:
    if not report.flags:
        return section(
            "Regression flags",
            '<p class="ok">no regressions vs the previous BENCH records</p>',
        )
    rows = [
        (
            ("html", f'<span class="flag">{flag.kind}</span>'),
            flag.label,
            f"PR {flag.previous_pr}",
            flag.previous,
            f"PR {flag.current_pr}",
            flag.current,
            f"{flag.drift:+.1%}",
            f"{flag.tolerance:.0%}",
        )
        for flag in sorted(report.flags, key=lambda f: (f.kind, f.label))
    ]
    return section(
        "Regression flags",
        table(
            [
                "kind",
                "label",
                "baseline",
                "value",
                "current",
                "value",
                "drift",
                "tolerance",
            ],
            rows,
            numeric=(3, 5, 6, 7),
        ),
    )


def _provenance(report: Report) -> str:
    return (
        f"{report.num_trials} trials, {len(report.families)} families, "
        f"{len(report.trajectory)} BENCH records, "
        f"{len(report.flags)} regression flags"
    )


def render_html(report: Report, title: str = "repro experiment report") -> str:
    """The full report page (deterministic; see the module docstring)."""
    return page(
        title,
        _overview_section(report),
        _flags_section(report),
        _families_section(report),
        _ranks_section(report),
        _trajectory_section(report),
        generated_from=_provenance(report),
    )

