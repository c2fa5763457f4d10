"""Aggregation over trial records for the report.

Two kinds of summary feed :mod:`repro.analysis.report`:

* **per-family cost profiles** — trials grouped by instance family, each
  scheduler summarised by trial count, geometric-mean cost and (the
  scale-free number) geometric-mean ratio to the best scheduler of each
  comparison group, plus outright wins;
* **rank tables** — schedulers ranked within comparison groups (same DAG,
  machine, budget and seed — :meth:`TrialRecord.group_key
  <repro.store.trials.TrialRecord.group_key>`), mean ranks over the
  largest set of *complete blocks*, with a Nemenyi-style critical
  difference so "is this rank gap meaningful at this sample size" is a
  number, not a feeling, and a pairwise win matrix over every group two
  schedulers share.

Everything here is deterministic: outputs are sorted, derived purely from
the inputs, and never consult the clock — the property the byte-stable
HTML report is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from ..store.trials import TrialRecord
from .metrics import geometric_mean as _strict_geomean

__all__ = [
    "FamilyProfile",
    "FamilySchedulerStats",
    "RankEntry",
    "RankTable",
    "comparison_groups",
    "dedup_trials",
    "family_profiles",
    "rank_table",
]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, tolerating the zero costs trivial instances produce.

    :func:`repro.analysis.metrics.geometric_mean` raises on non-positive
    input; a report over arbitrary stores must not.  Zero values (a
    communication-free schedule has cost components of exactly 0) degrade
    the aggregate to the arithmetic mean of the affected list.
    """
    values = list(values)
    if not values:
        return float("nan")
    if any(v <= 0 for v in values):
        return sum(values) / len(values)
    return _strict_geomean(values)


# ---------------------------------------------------------------------- #
# trial plumbing
# ---------------------------------------------------------------------- #
def dedup_trials(trials: Iterable[TrialRecord]) -> list[TrialRecord]:
    """One record per fingerprint (the latest), in deterministic order.

    Processes sharing one store may legitimately record the same
    fingerprint more than once (two runs that solve the same request
    concurrently both append a trial, and content-addressing makes that
    benign); for aggregation a request is one trial.  The result is
    sorted by (family, dag, scheduler, fingerprint), independent of
    append order.
    """
    latest: dict[str, TrialRecord] = {}
    for record in trials:
        latest[record.fingerprint] = record
    return sorted(
        latest.values(),
        key=lambda r: (r.family, r.dag_name, r.scheduler, r.fingerprint),
    )


def comparison_groups(
    trials: Iterable[TrialRecord],
) -> list[tuple[tuple, dict[str, TrialRecord]]]:
    """Trials bucketed by comparison group, schedulers mapped within.

    A *group* is one problem — same DAG content, machine, budget, seed —
    solved by one or more schedulers; ranking across schedulers is only
    meaningful within a group.  Groups are sorted by key; a scheduler
    appearing twice in a group (same fingerprint dedup'd upstream; two
    *specs* sharing a registry name) keeps the cheaper trial, so ranks
    stay well defined.
    """
    buckets: dict[tuple, dict[str, TrialRecord]] = {}
    for record in dedup_trials(trials):
        bucket = buckets.setdefault(record.group_key(), {})
        kept = bucket.get(record.scheduler)
        if kept is None or record.cost < kept.cost:
            bucket[record.scheduler] = record
    return sorted(buckets.items(), key=lambda item: item[0])


# ---------------------------------------------------------------------- #
# per-family cost profiles
# ---------------------------------------------------------------------- #
@dataclass
class FamilySchedulerStats:
    """One scheduler's summary within one family."""

    scheduler: str
    trials: int
    geomean_cost: float
    #: geometric-mean of cost / (best cost in the comparison group) —
    #: 1.0 means "always the winner", scale-free across instance sizes
    geomean_ratio_to_best: float
    wins: int


@dataclass
class FamilyProfile:
    """All schedulers' summaries over one instance family."""

    family: str
    num_instances: int
    num_trials: int
    node_range: tuple[int, int]
    schedulers: list[FamilySchedulerStats] = field(default_factory=list)


def family_profiles(trials: Iterable[TrialRecord]) -> list[FamilyProfile]:
    """Per-family, per-scheduler cost profiles (sorted by family name)."""
    deduped = dedup_trials(trials)
    profiles: list[FamilyProfile] = []
    families = sorted({record.family for record in deduped})
    for family in families:
        members = [record for record in deduped if record.family == family]
        groups = comparison_groups(members)
        costs: dict[str, list[float]] = {}
        ratios: dict[str, list[float]] = {}
        wins: dict[str, int] = {}
        for _, by_scheduler in groups:
            best = min(record.cost for record in by_scheduler.values())
            winner = min(
                by_scheduler, key=lambda name: (by_scheduler[name].cost, name)
            )
            wins[winner] = wins.get(winner, 0) + 1
            for name, record in sorted(by_scheduler.items()):
                costs.setdefault(name, []).append(record.cost)
                ratios.setdefault(name, []).append(
                    record.cost / best if best > 0 else 1.0
                )
        profiles.append(
            FamilyProfile(
                family=family,
                num_instances=len({record.dag_fingerprint for record in members}),
                num_trials=len(members),
                node_range=(
                    min(record.num_nodes for record in members),
                    max(record.num_nodes for record in members),
                ),
                schedulers=[
                    FamilySchedulerStats(
                        scheduler=name,
                        trials=len(costs[name]),
                        geomean_cost=geometric_mean(costs[name]),
                        geomean_ratio_to_best=geometric_mean(ratios[name]),
                        wins=wins.get(name, 0),
                    )
                    for name in sorted(costs)
                ],
            )
        )
    return profiles


# ---------------------------------------------------------------------- #
# rank tables with a critical-difference summary
# ---------------------------------------------------------------------- #
#: Nemenyi critical values q_alpha(k) / sqrt(2) at alpha = 0.05 for
#: k = 2..10 compared schedulers (Demsar 2006, Table 5) — the constant in
#: CD = q * sqrt(k (k + 1) / (6 N))
_NEMENYI_Q05 = {
    2: 1.960,
    3: 2.343,
    4: 2.569,
    5: 2.728,
    6: 2.850,
    7: 2.949,
    8: 3.031,
    9: 3.102,
    10: 3.164,
}


@dataclass
class RankEntry:
    """One scheduler's mean rank over the complete blocks."""

    scheduler: str
    mean_rank: float
    blocks: int


@dataclass
class RankTable:
    """Scheduler-vs-scheduler ranking summary.

    ``entries`` is sorted best (lowest mean rank) first over ``num_blocks``
    complete blocks of ``len(entries)`` schedulers.  ``critical_difference``
    is the Nemenyi CD at alpha = 0.05 (``None`` when no table applies:
    fewer than two schedulers, no complete blocks, or k > 10);
    ``significant_pairs`` lists the (better, worse) pairs whose mean-rank
    gap exceeds it.  ``wins`` counts pairwise wins over *every* shared
    group, complete block or not.
    """

    entries: list[RankEntry] = field(default_factory=list)
    num_blocks: int = 0
    critical_difference: float | None = None
    significant_pairs: list[tuple[str, str]] = field(default_factory=list)
    wins: dict[str, dict[str, int]] = field(default_factory=dict)


def _ranks(costs: dict[str, float]) -> dict[str, float]:
    """Competition ranks with ties averaged (1 = cheapest)."""
    ordered = sorted(costs.items(), key=lambda item: (item[1], item[0]))
    ranks: dict[str, float] = {}
    index = 0
    while index < len(ordered):
        tied = index
        while (
            tied + 1 < len(ordered) and ordered[tied + 1][1] == ordered[index][1]
        ):
            tied += 1
        rank = (index + tied) / 2.0 + 1.0
        for position in range(index, tied + 1):
            ranks[ordered[position][0]] = rank
        index = tied + 1
    return ranks


def rank_table(trials: Iterable[TrialRecord]) -> RankTable:
    """Rank schedulers within comparison groups; summarise with a CD.

    Mean ranks are computed over the largest usable set of **complete
    blocks**: groups sharing the most frequent multi-scheduler signature
    (the set of schedulers they compare — frequency ties broken towards
    the larger set, then lexicographically), because Friedman-style mean
    ranks are only comparable when every block ranks the same k
    schedulers.  The pairwise win matrix uses every group two schedulers
    share, so partial grids still contribute evidence.
    """
    groups = [
        (key, by_scheduler)
        for key, by_scheduler in comparison_groups(trials)
        if len(by_scheduler) >= 2
    ]
    table = RankTable()
    if not groups:
        return table
    # pairwise wins over every shared group
    wins: dict[str, dict[str, int]] = {}
    for _, by_scheduler in groups:
        names = sorted(by_scheduler)
        for first in names:
            for second in names:
                if first == second:
                    continue
                if by_scheduler[first].cost < by_scheduler[second].cost:
                    wins.setdefault(first, {}).setdefault(second, 0)
                    wins[first][second] += 1
    table.wins = wins
    # complete blocks: the most frequent scheduler signature
    signatures: dict[tuple[str, ...], int] = {}
    for _, by_scheduler in groups:
        signature = tuple(sorted(by_scheduler))
        signatures[signature] = signatures.get(signature, 0) + 1
    signature = max(
        signatures, key=lambda sig: (signatures[sig], len(sig), tuple(sig))
    )
    blocks = [
        by_scheduler
        for _, by_scheduler in groups
        if tuple(sorted(by_scheduler)) == signature
    ]
    totals = {name: 0.0 for name in signature}
    for by_scheduler in blocks:
        for name, rank in _ranks(
            {name: record.cost for name, record in by_scheduler.items()}
        ).items():
            totals[name] += rank
    num_blocks = len(blocks)
    table.num_blocks = num_blocks
    table.entries = sorted(
        (
            RankEntry(
                scheduler=name,
                mean_rank=totals[name] / num_blocks,
                blocks=num_blocks,
            )
            for name in signature
        ),
        key=lambda entry: (entry.mean_rank, entry.scheduler),
    )
    k = len(signature)
    q = _NEMENYI_Q05.get(k)
    if q is not None and num_blocks > 0:
        table.critical_difference = q * math.sqrt(k * (k + 1) / (6.0 * num_blocks))
        for index, better in enumerate(table.entries):
            for worse in table.entries[index + 1 :]:
                if worse.mean_rank - better.mean_rank > table.critical_difference:
                    table.significant_pairs.append(
                        (better.scheduler, worse.scheduler)
                    )
    return table
