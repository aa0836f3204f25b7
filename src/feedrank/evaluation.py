"""Ranking quality evaluation with nDCG over every decision minute at once.

At each decision minute the active items are ranked by each policy and
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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .events import ItemTable
from .indices import IndexTable
from .ranking import DEFAULT_HORIZON, Rankings, rank_minutes
from .states import StateSpace, classify

SIGNALS = ("utility", "rt", "rt_replies", "rt_replies_favs")
DEFAULT_RELEVANCE_CAP = 30

# The largest relevance cap: a gain 2**cap - 1 above it overflows a float.
MAX_RELEVANCE_CAP = 1023

_SIGNAL_KINDS = {
    "rt": ("retweet",),
    "rt_replies": ("retweet", "reply"),
    "rt_replies_favs": ("retweet", "reply", "favorite"),
}


def utility_relevance(t: int, rows: np.ndarray, table: ItemTable,
                      state_space: StateSpace) -> np.ndarray:
    """Each row's state at minute ``t + 1``; its reward is the relevance."""
    return classify(t + 1 - table.post_minute[rows], table.count("retweet", rows, 0, t + 1),
                    state_space.bins)


def attention_relevance(t: int, rows: np.ndarray, table: ItemTable, signal: str,
                        cap: int = DEFAULT_RELEVANCE_CAP) -> np.ndarray:
    """Engagement each row receives during minute ``t``, capped at ``cap``."""
    if signal not in _SIGNAL_KINDS:
        raise ConfigError(f"unknown attention signal {signal!r}")
    if not 1 <= cap <= MAX_RELEVANCE_CAP:
        raise ConfigError(f"relevance cap must lie in 1..{MAX_RELEVANCE_CAP}")
    return np.minimum(sum(table.count(kind, rows, t, t + 1)
                          for kind in _SIGNAL_KINDS[signal]), cap)


def _gains(relevance: Iterable[float]) -> np.ndarray:
    """The nDCG gain ``2**s - 1`` of each relevance value ``s``."""
    return np.array([2.0 ** float(s) - 1.0 for s in relevance])


def ndcg(gains, which: np.ndarray | None = None):
    """Normalized discounted cumulative gain of gains in rank order.

    ``DCG = sum_p gains[p - 1] / log2(1 + p)``, divided by the DCG of the
    gains sorted best first; an all-zero list scores 1. Given ``which``,
    each row of ``gains`` ranks the same groups of gains (entry ``i`` in
    group ``which[i]``, groups numbered from 0 and listed in turn), and
    the result holds a score per row and group.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size and gains.min() < 0:
        raise DataError(f"negative gain {gains.min()}")
    if which is None:
        return float(ndcg([gains], np.zeros(gains.size, dtype=int))[0, 0]) if gains.size else 1.0
    sizes = np.bincount(which)
    discount = np.array([math.log2(p + 2) for p in range(sizes.max(initial=0))])
    discount = discount[np.arange(len(which)) - np.repeat(np.cumsum(sizes) - sizes, sizes)]
    ideal = gains[0][np.lexsort((-gains[0], which))]
    # ``ufunc.at`` adds entries one by one, in order, as Python's sum does: every bit is kept.
    dcg = np.zeros((len(gains) + 1, len(sizes)))
    for row, ranked in zip(dcg, [*gains, ideal]):
        np.add.at(row, which, ranked / discount)
    return np.divide(dcg[:-1], dcg[-1], out=np.ones_like(dcg[:-1]), where=dcg[-1] != 0.0)


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


def _decision_minutes(post_minute: np.ndarray, start: int, end: int, interval: int,
                      hour_set: frozenset[int] | None,
                      horizon: int) -> tuple[list[int], int]:
    """The decision minutes that can hold an active item, and the count of all.

    Decision minutes are ``start + k * interval`` in ``[start, end)``
    whose UTC hour is in ``hour_set`` (every minute when it is None).
    Only those within ``[p + 1, p + horizon]`` of some post minute ``p``
    are listed, so the window's length costs nothing: the filter repeats
    every ``1440 / gcd(interval, 1440)`` steps, and the count is whole
    periods plus a remainder.
    """
    n_steps = -(-(end - start) // interval)
    period = 1440 // math.gcd(interval, 1440)
    hours = (start % 1440 + interval % 1440 * np.arange(period)) % 1440 // 60
    passes = (np.ones(period, dtype=bool) if hour_set is None
              else np.isin(hours, sorted(hour_set)))
    full, rest = divmod(n_steps, period)
    n_decision = full * int(passes.sum()) + int(passes[:rest].sum())

    # Merge the posts' active ranges [p + 1, p + horizon + 1): all have
    # one length, so in start order a range opens a new run exactly when
    # it starts after the previous one stops (a repeated post minute
    # joins the run of its twin).
    posts = np.sort(post_minute)
    if not posts.size:
        return [], n_decision
    lo, hi = posts + 1, posts + horizon + 1
    first = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])
    last = np.r_[first[1:] - 1, len(posts) - 1]
    k_lo = -(-(np.maximum(lo[first], start) - start) // interval)
    k_hi = -(-(np.minimum(hi[last], end) - start) // interval)
    counts = np.maximum(k_hi - k_lo, 0)
    ks = np.repeat(k_lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    ks = ks[passes[ks % period]]
    return (start + interval * ks).tolist(), n_decision


@dataclass
class EvaluationReport:
    """The ranking batch and its nDCG series plus aggregate statistics.

    ``series[(policy, signal)][i]`` scores minute ``rankings.minutes[i]``.
    """

    policies: tuple[str, ...]
    signals: tuple[str, ...]
    rankings: Rankings
    series: dict[tuple[str, str], list[float]]
    skipped_empty: int
    warnings: list[str]
    fingerprint: dict[str, str] = field(default_factory=dict)

    @property
    def minutes(self) -> list[int]:
        return self.rankings.minutes.tolist()

    @property
    def active_counts(self) -> list[int]:
        return np.bincount(self.rankings.which, minlength=len(self.rankings.minutes)).tolist()

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


def evaluate_run(table: ItemTable, state_space: StateSpace,
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
    if not policies:
        raise ConfigError("evaluation needs at least one policy")
    if interval < 1:
        raise ConfigError("decision interval must be >= 1")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if not 1 <= relevance_cap <= MAX_RELEVANCE_CAP:
        raise ConfigError(f"relevance cap must lie in 1..{MAX_RELEVANCE_CAP}")
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

    utility_gain = _gains(state_space.reward)
    attention_gain = _gains(range(relevance_cap + 1))
    decision_minutes, n_decision = _decision_minutes(
        table.post_minute, start, end, interval, hour_set, horizon)
    rankings = rank_minutes(table, state_space, index_table, policies, decision_minutes, horizon)
    t = rankings.minutes[rankings.which]
    series: dict[tuple[str, str], list[float]] = {}
    for s in signals:
        gain = (utility_gain[utility_relevance(t, rankings.rows, table, state_space)]
                if s == "utility" else
                attention_gain[attention_relevance(t, rankings.rows, table, s, relevance_cap)])
        for p, scores in zip(policies, ndcg(gain[rankings.orders], rankings.which)):
            series[(p, s)] = scores.tolist()

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
        rankings=rankings,
        series=series,
        skipped_empty=n_decision - len(rankings.minutes),
        warnings=warnings,
        fingerprint=fingerprint,
    )


def write_series_csv(report: EvaluationReport, path) -> None:
    """Per-minute nDCG rows: minute, policy, signal, ndcg, active_count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["minute", "policy", "signal", "ndcg", "active_count"])
        for i, (minute, count) in enumerate(zip(report.minutes, report.active_counts)):
            writer.writerows([minute, p, s, format(report.series[(p, s)][i], ".17g"), count]
                             for p in report.policies for s in report.signals)


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
