"""Ranking quality evaluation with nDCG over per-minute snapshots.

For each decision minute the active items are ranked by each policy and
scored against a relevance signal:

    utility            reward of the state the item holds one minute later
    rt                 retweets received during the minute
    rt_replies         retweets + replies during the minute
    rt_replies_favs    retweets + replies + favorites during the minute

Attention counts are capped before the exponential gain so a single
viral minute cannot blow up the score. nDCG uses base-2 gains and
discounts:

    DCG = sum_p (2^s(p) - 1) / log2(1 + p)      (p is the 1-based rank)

normalized by the DCG of the ideal ordering; an all-zero minute scores 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import ConfigError, DataError
from .events import ItemTimeline, hour_of_minute
from .indices import IndexTable
from .ranking import DEFAULT_HORIZON, POLICIES, rank_minutes
from .states import StateSpace, classify_minute

SIGNALS = ("utility", "rt", "rt_replies", "rt_replies_favs")
DEFAULT_RELEVANCE_CAP = 30

_SIGNAL_SLOTS = {
    "rt": (0,),
    "rt_replies": (0, 1),
    "rt_replies_favs": (0, 1, 2),
}


def utility_relevance(t: int, item_ids: Sequence[str],
                      timelines: Mapping[str, ItemTimeline],
                      state_space: StateSpace) -> dict[str, float]:
    """Reward of each item's state at minute ``t + 1``."""
    reward = state_space.reward
    return {
        iid: float(reward[classify_minute(timelines[iid], t + 1, state_space)])
        for iid in item_ids
    }


def attention_relevance(t: int, item_ids: Sequence[str],
                        timelines: Mapping[str, ItemTimeline], signal: str,
                        cap: int = DEFAULT_RELEVANCE_CAP) -> dict[str, float]:
    """Engagement received during minute ``t``, capped at ``cap``."""
    if signal not in _SIGNAL_SLOTS:
        raise ConfigError(f"unknown attention signal {signal!r}")
    if cap < 1:
        raise ConfigError("relevance cap must be >= 1")
    slots = _SIGNAL_SLOTS[signal]
    scores = {}
    for iid in item_ids:
        counts = timelines[iid].counts_in_minute(t)
        scores[iid] = float(min(sum(counts[s] for s in slots), cap))
    return scores


def ndcg(ranked_ids: Sequence[str], relevance: Mapping[str, float]) -> float:
    """Normalized discounted cumulative gain of one ranked list."""
    gains = []
    for iid in ranked_ids:
        s = relevance[iid]
        if s < 0:
            raise DataError(f"negative relevance {s} for item {iid!r}")
        gains.append(2.0 ** s - 1.0)
    dcg = sum(gain / math.log2(pos + 1) for pos, gain in enumerate(gains, start=1))
    ideal = sum(
        gain / math.log2(pos + 1)
        for pos, gain in enumerate(sorted(gains, reverse=True), start=1)
    )
    if ideal == 0.0:
        return 1.0
    return dcg / ideal


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; nan when either series is degenerate."""
    n = len(x)
    if n != len(y):
        raise ValueError("series lengths differ")
    if n < 2:
        return math.nan
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return math.nan
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


@dataclass
class EvaluationReport:
    """Per-minute nDCG series plus aggregate statistics."""

    policies: tuple[str, ...]
    signals: tuple[str, ...]
    minutes: list[int]
    active_counts: list[int]
    series: dict[tuple[str, str], list[float]]
    skipped_empty: int
    warnings: list[str]
    fingerprint: dict[str, str] = field(default_factory=dict)

    def mean_std(self, policy: str, signal: str) -> tuple[float, float]:
        values = self.series[(policy, signal)]
        if not values:
            return math.nan, math.nan
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    def pearson_active(self, policy: str, signal: str) -> float:
        return pearson(self.series[(policy, signal)], [float(c) for c in self.active_counts])

    def summary(self) -> dict[tuple[str, str], tuple[float, float]]:
        return {
            (p, s): self.mean_std(p, s)
            for p in self.policies for s in self.signals
        }


def evaluate_run(timelines: Mapping[str, ItemTimeline], state_space: StateSpace,
                 index_table: IndexTable | None,
                 policies: Sequence[str], signals: Sequence[str],
                 minute_range: tuple[int, int], *,
                 horizon: int = DEFAULT_HORIZON, interval: int = 1,
                 peak_hours: Sequence[int] | None = None,
                 relevance_cap: int = DEFAULT_RELEVANCE_CAP,
                 train_window: tuple[int, int] | None = None) -> EvaluationReport:
    """Score every policy/signal pair over a window of decision minutes.

    Minutes with an empty active set are skipped and counted. When
    ``peak_hours`` is given only minutes whose UTC hour is in the set
    enter the run at all; per-minute values are unaffected by the
    filter. An overlapping ``train_window`` produces a warning, not an
    error.
    """
    policies = tuple(policies)
    signals = tuple(signals)
    for p in policies:
        if p not in POLICIES:
            raise ConfigError(f"unknown policy {p!r}; expected one of {POLICIES}")
    for s in signals:
        if s not in SIGNALS:
            raise ConfigError(f"unknown signal {s!r}; expected one of {SIGNALS}")
    if "index" in policies and index_table is None:
        raise ConfigError("the index policy needs a computed index table")
    if interval < 1:
        raise ConfigError("decision interval must be >= 1")
    start, end = minute_range
    if end <= start:
        raise ConfigError(f"evaluation window [{start}, {end}) is empty")
    hour_set = None
    if peak_hours is not None:
        hour_set = frozenset(int(h) for h in peak_hours)
        if any(h < 0 or h > 23 for h in hour_set):
            raise ConfigError("peak hours must lie in 0..23")
        if not hour_set:
            raise ConfigError("peak hour set is empty")

    warnings: list[str] = []
    if train_window is not None:
        t0, t1 = train_window
        if max(start, t0) < min(end, t1):
            warnings.append(
                f"train window [{t0}, {t1}) overlaps evaluation window [{start}, {end})"
            )

    decision_minutes = [t for t in range(start, end, interval)
                        if hour_set is None or hour_of_minute(t) in hour_set]
    minutes: list[int] = []
    active_counts: list[int] = []
    series: dict[tuple[str, str], list[float]] = {
        (p, s): [] for p in policies for s in signals
    }
    for t, ids, snapshots in rank_minutes(timelines, state_space, index_table,
                                          policies, decision_minutes, horizon):
        relevances = {
            s: utility_relevance(t, ids, timelines, state_space) if s == "utility"
            else attention_relevance(t, ids, timelines, s, cap=relevance_cap)
            for s in signals
        }
        for snap in snapshots:
            for s in signals:
                series[(snap.policy, s)].append(ndcg(snap.item_ids, relevances[s]))
        minutes.append(t)
        active_counts.append(len(ids))

    fingerprint = {
        "eval_window": f"[{start}, {end})",
        "decision_interval": str(interval),
        "horizon": str(horizon),
        "relevance_cap": str(relevance_cap),
        "peak_hours": ",".join(str(h) for h in sorted(hour_set)) if hour_set else "none",
        "policies": ",".join(policies),
        "signals": ",".join(signals),
    }
    if train_window is not None:
        fingerprint["train_window"] = f"[{train_window[0]}, {train_window[1]})"

    return EvaluationReport(
        policies=policies,
        signals=signals,
        minutes=minutes,
        active_counts=active_counts,
        series=series,
        skipped_empty=len(decision_minutes) - len(minutes),
        warnings=warnings,
        fingerprint=fingerprint,
    )


def write_series_csv(report: EvaluationReport, path) -> None:
    """Per-minute nDCG rows: minute, policy, signal, ndcg, active_count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["minute", "policy", "signal", "ndcg", "active_count"])
        for i, minute in enumerate(report.minutes):
            for p in report.policies:
                for s in report.signals:
                    writer.writerow([
                        minute, p, s,
                        format(report.series[(p, s)][i], ".17g"),
                        report.active_counts[i],
                    ])


def write_summary_csv(report: EvaluationReport, path) -> None:
    """Signal rows with mean/std columns per policy."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["signal"]
        for p in report.policies:
            header.extend([f"{p}_mean", f"{p}_std"])
        writer.writerow(header)
        for s in report.signals:
            row = [s]
            for p in report.policies:
                mean, std = report.mean_std(p, s)
                row.extend([format(mean, ".17g"), format(std, ".17g")])
            writer.writerow(row)


def write_header_text(report: EvaluationReport, path, extra: Mapping[str, str] | None = None) -> None:
    """Plain-text run header: config fingerprint, counts, warnings,
    and the correlation between each nDCG series and active-set size."""
    lines = ["dual-speed feed ranking evaluation"]
    if extra:
        for key, value in extra.items():
            lines.append(f"{key} = {value}")
    for key, value in report.fingerprint.items():
        lines.append(f"{key} = {value}")
    lines.append(f"minutes_evaluated = {len(report.minutes)}")
    lines.append(f"minutes_skipped_empty = {report.skipped_empty}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    for p in report.policies:
        for s in report.signals:
            corr = report.pearson_active(p, s)
            lines.append(f"pearson_active[{p},{s}] = {format(corr, '.17g')}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
