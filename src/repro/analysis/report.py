"""The experiment report: trial store -> one HTML file.

:func:`build_report` aggregates the trial table of a
:class:`~repro.store.ResultStore` (see :mod:`repro.store.trials`) into one
plain :class:`Report` value; :func:`render_html` turns it into a
deterministic, self-contained HTML page (inline SVG, no external assets;
see :mod:`repro.analysis.htmlgen`).

Byte-stability is a hard guarantee, not an aspiration: two stores holding
the same trials render the same bytes, regardless of append order, file
paths, or when they were built.  Volatile fields (wall-clock timings,
``created_at`` stamps) are deliberately never rendered, iteration is
sorted everywhere, and provenance lines carry counts rather than paths.
The golden-file tests pin exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.exceptions import ConfigurationError
from ..store.results import ResultStore
from .aggregate import (
    FamilyProfile,
    RankTable,
    dedup_trials,
    family_profiles,
    rank_table,
)
from .htmlgen import bar_chart, page, section, table

__all__ = ["Report", "build_report", "render_html"]


@dataclass
class Report:
    """Everything the renderers need, already aggregated and sorted."""

    num_trials: int
    families: list[FamilyProfile]
    ranks: RankTable


def build_report(store_root: str | Path | None) -> Report:
    """Aggregate a store's trials into a report.

    ``store_root=None`` (or a store with no trials) produces the "no
    trials yet" report.  A store root that is not a directory raises
    :class:`~repro.core.exceptions.ConfigurationError`, so a mistyped path
    never renders as an empty store.
    """
    trials = []
    if store_root is not None:
        store = (
            store_root
            if isinstance(store_root, ResultStore)
            else ResultStore(store_root)
        )
        if not store.root.is_dir():
            raise ConfigurationError(
                f"result store {str(store.root)!r} is not a directory"
            )
        trials = dedup_trials(store.trials.trials())
    return Report(
        num_trials=len(trials),
        families=family_profiles(trials),
        ranks=rank_table(trials),
    )


# ---------------------------------------------------------------------- #
# section renderers (each returns an HTML fragment)
# ---------------------------------------------------------------------- #
def _overview_section(report: Report) -> str:
    rows = [
        ("trial records", report.num_trials),
        ("instance families", len(report.families)),
    ]
    return section("Overview", table(["what", "count"], rows, numeric=(1,)))


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
                    "—"
                    if first == second
                    else ranks.wins.get(first, {}).get(second, 0)
                )
            rows.append(row)
        body += table(
            ["wins ↓ over →", *names],
            rows,
            numeric=tuple(range(1, len(names) + 1)),
        )
    return section("Scheduler ranking", body)


def _provenance(report: Report) -> str:
    return f"{report.num_trials} trials, {len(report.families)} families"


def render_html(report: Report, title: str = "repro experiment report") -> str:
    """The full report page (deterministic; see the module docstring)."""
    return page(
        title,
        _overview_section(report),
        _families_section(report),
        _ranks_section(report),
        generated_from=_provenance(report),
    )

