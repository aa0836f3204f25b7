"""Ranking quality evaluation with nDCG over every decision minute at once.

An item posted in minute ``p`` is active at decision minute ``t`` when
``p < t <= p + horizon``. ``rank_window`` alone applies that rule: it
lists each item's active minutes, takes every count the run needs once
and sorts the entries by minute. At each decision minute the active
items are ranked by each policy and scored against a relevance signal:

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
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .config import DEFAULT_RELEVANCE_CAP, MAX_ENTRIES, MAX_RELEVANCE_CAP, BinSpec, RunConfig
from .errors import ConfigError, DataError
from .events import ENGAGEMENT_KINDS, ItemTable, hour_of_minute
from .ranking import Rankings, rank_items
from .states import StateSpace, classify

# Each attention signal counts the first this many of ENGAGEMENT_KINDS,
# the row of ``rank_window``'s counts that holds their sum.
_SIGNAL_KINDS = {"rt": 1, "rt_replies": 2, "rt_replies_favs": 3}


def utility_relevance(rankings: Rankings, counts: np.ndarray, table: ItemTable,
                      bins: BinSpec) -> np.ndarray:
    """Each entry's state one minute later; its reward is the relevance.

    ``rankings`` and ``counts`` are what ``rank_window`` returns: the
    retweets by the next minute are those before the entry's minute plus
    those during it.
    """
    ages = rankings.minutes[rankings.which] + 1 - table.post_minute[rankings.rows]
    return classify(ages, counts[0] + counts[1], bins)


def attention_relevance(counts: np.ndarray, signal: str,
                        cap: int = DEFAULT_RELEVANCE_CAP) -> np.ndarray:
    """Engagement each entry receives during its minute, capped at ``cap``,
    from the counts ``rank_window`` returns."""
    if signal not in _SIGNAL_KINDS:
        raise ConfigError(f"unknown attention signal {signal!r}")
    if not 1 <= cap <= MAX_RELEVANCE_CAP:
        raise ConfigError(f"relevance cap must lie in 1..{MAX_RELEVANCE_CAP}")
    return np.minimum(counts[_SIGNAL_KINDS[signal]], cap)


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
    # ``bincount`` adds entries one by one, in order from 0, as Python's sum does:
    # every bit is kept. Its sums of an empty ``which`` are integers, hence the dtype.
    dcg = np.array([np.bincount(which, ranked / discount, len(sizes))
                    for ranked in [*gains, ideal]], dtype=float)
    return np.divide(dcg[:-1], dcg[-1], out=np.ones_like(dcg[:-1]), where=dcg[-1] != 0.0)


def _sum(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis of a non-empty array, adding left to right
    from 0 as Python 3.11's ``sum`` does (3.12's compensates)."""
    return np.cumsum(values, axis=-1)[..., -1] + 0.0


def mean_std(values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation along the last axis; nan for
    empty series. Every sum adds left to right, so each bit is the same on
    every Python version."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n == 0:
        return (np.full(values.shape[:-1], math.nan)[()],) * 2
    mean = _sum(values) / n
    # libm's pow, as Python's ``**`` uses: ``x * x`` can differ in the last bit.
    return mean, np.sqrt(_sum(np.float_power(values - mean[..., None], 2.0)) / n)


def pearson(x, y) -> np.ndarray:
    """Pearson correlation along the last axis of ``x`` and ``y``, which
    broadcast against each other (a float for two series); nan where
    either series is degenerate. Sums add as in ``mean_std``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = x.shape[-1]
    if n != y.shape[-1]:
        raise ValueError("series lengths differ")
    x, y = np.broadcast_arrays(x, y)
    corr = np.full(x.shape[:-1], math.nan)
    if n >= 2:
        dx, dy = x - (_sum(x) / n)[..., None], y - (_sum(y) / n)[..., None]
        sxx, syy = _sum(np.float_power(dx, 2.0)), _sum(np.float_power(dy, 2.0))
        np.divide(_sum(dx * dy), np.sqrt(sxx * syy), out=corr, where=(sxx != 0.0) & (syy != 0.0))
    return corr[()]


def rank_window(table: ItemTable, bins: BinSpec, g: np.ndarray | None,
                cfg: RunConfig) -> tuple[Rankings, np.ndarray, int]:
    """Rank the active items of every decision minute under ``cfg.policies``.

    Decision minutes are ``start + k * interval`` in ``cfg.eval_window``
    whose UTC hour is in ``cfg.peak_hours`` (all when it is None); minutes
    with no active item are left out. Returns the rankings, int32 counts
    with a column per entry (row 0: retweets before its minute; row ``i``:
    engagement during it of the first ``i`` of ``ENGAGEMENT_KINDS``), and
    the count of all decision minutes.
    """
    if cfg.eval_window is None:
        raise ConfigError("evaluation needs an eval window")
    (start, end), interval, hour_set = cfg.eval_window, cfg.decision_interval, cfg.peak_hours
    # The hour filter repeats every period steps: the count of decision
    # minutes is whole periods plus a remainder. Reducing start and
    # interval mod 1440 first keeps the minutes small enough for int64.
    period = 1440 // math.gcd(interval, 1440)
    hours = hour_of_minute(start % 1440 + interval % 1440 * np.arange(period))
    passes = np.ones(period, dtype=bool) if hour_set is None else np.isin(hours, hour_set)
    full, rest = divmod(-(-(end - start) // interval), period)
    n_decision = full * int(passes.sum()) + int(passes[:rest].sum())

    # Item by item, the steps k whose minute t has p < t <= p + horizon:
    # the window's length costs nothing.
    post = table.post_minute
    k_lo = -(-(np.maximum(post + 1, start) - start) // interval)
    k_hi = -(-(np.minimum(post + cfg.horizon + 1, end) - start) // interval)
    steps = np.maximum(k_hi - k_lo, 0)
    n_entries = sum(steps.tolist())  # a Python int: it cannot wrap
    if n_entries > MAX_ENTRIES:
        raise ConfigError(f"the eval window and horizon give {n_entries} active item-minutes, "
                          f"more than {MAX_ENTRIES}; narrow --eval-window or --horizon")
    rows = np.repeat(np.arange(len(post)), steps)
    ks = np.repeat(k_lo - np.cumsum(steps) + steps, steps) + np.arange(len(rows))
    keep = passes[ks % period]
    rows, t = rows[keep], start + interval * ks[keep]
    # A stable sort by minute keeps each minute's rows in item-id order.
    # Counts are taken in item order, where the needles ``row * stride +
    # minute`` ascend, and stored in minute order. One item's count fits
    # int32 for any log of under 2**31 events.
    order = np.argsort(t, kind="stable")
    counts = np.empty((1 + len(ENGAGEMENT_KINDS), len(rows)), dtype=np.int32)
    counts[0] = table.count("retweet", rows, 0, t)[order]
    for i, kind in enumerate(ENGAGEMENT_KINDS, start=1):
        counts[i] = table.count(kind, rows, t, t + 1)[order]
    np.cumsum(counts[1:], axis=0, out=counts[1:])
    t = t[order]
    rows = rows[order]
    del order  # dropped before ranking's large arrays, as are t and first
    first = np.ones(len(t), dtype=bool)
    first[1:] = t[1:] != t[:-1]
    minutes = t[first]
    which = np.cumsum(first) - 1
    states = classify(t - post[rows], counts[0], bins)
    del t, first
    post_ts = table.post_ts[rows]
    orders = np.empty((len(cfg.policies), len(rows)), dtype=np.intp)
    for j, policy in enumerate(cfg.policies):
        orders[j] = rank_items(policy, which, post_ts, states, counts[0], g)
    return Rankings(minutes, which, rows, states, orders), counts, n_decision


@dataclass(eq=False)
class EvaluationReport:
    """The ranking batch and its nDCG scores.

    ``scores[i, j, k]`` scores ``policies[i]`` against ``signals[j]`` at
    minute ``rankings.minutes[k]``.
    """

    policies: tuple[str, ...]
    signals: tuple[str, ...]
    rankings: Rankings
    scores: np.ndarray
    skipped_empty: int
    warnings: list[str]
    fingerprint: dict[str, str] = field(default_factory=dict)

    @property
    def minutes(self) -> list[int]:
        return self.rankings.minutes.tolist()

    @cached_property
    def active_counts(self) -> np.ndarray:
        """The number of active items at each minute."""
        return np.bincount(self.rankings.which, minlength=len(self.rankings.minutes))


def evaluate_run(table: ItemTable, state_space: StateSpace, g: np.ndarray | None,
                 cfg: RunConfig) -> EvaluationReport:
    """Score every policy/signal pair of ``cfg`` over its decision minutes.

    Minutes with an empty active set are skipped and counted. When
    ``cfg.peak_hours`` is set only minutes whose UTC hour is in the set
    enter the run at all; per-minute values are unaffected by the
    filter. An overlapping ``cfg.train_window`` produces a warning, not
    an error.
    """
    rankings, counts, n_decision = rank_window(table, state_space.bins, g, cfg)
    policies, signals = tuple(cfg.policies), tuple(cfg.signals)
    (start, end), train_window, cap = cfg.eval_window, cfg.train_window, cfg.relevance_cap

    warnings: list[str] = []
    if train_window is not None:
        t0, t1 = train_window
        if max(start, t0) < min(end, t1):
            warnings.append(
                f"train window [{t0}, {t1}) overlaps evaluation window [{start}, {end})"
            )

    utility_gain = _gains(state_space.reward)
    attention_gain = _gains(range(cap + 1))
    scores = np.empty((len(policies), len(signals), len(rankings.minutes)))
    for j, s in enumerate(signals):
        if s == "utility":
            gain = utility_gain[utility_relevance(rankings, counts, table, state_space.bins)]
        else:
            gain = attention_gain[attention_relevance(counts, s, cap)]
        # Only the ranked gains are alive in ndcg, and nothing past it.
        gain = gain[rankings.orders]
        scores[:, j] = ndcg(gain, rankings.which)
        del gain

    fingerprint = {
        "eval_window": f"[{start}, {end})",
        "decision_interval": str(cfg.decision_interval),
        "horizon": str(cfg.horizon),
        "relevance_cap": str(cap),
        "peak_hours": ",".join(map(str, cfg.peak_hours or ())) or "none",
        "policies": ",".join(policies),
        "signals": ",".join(signals),
    }
    if train_window is not None:
        fingerprint["train_window"] = f"[{train_window[0]}, {train_window[1]})"

    return EvaluationReport(
        policies=policies,
        signals=signals,
        rankings=rankings,
        scores=scores,
        skipped_empty=n_decision - len(rankings.minutes),
        warnings=warnings,
        fingerprint=fingerprint,
    )


def write_series_csv(report: EvaluationReport, path) -> None:
    """Per-minute nDCG rows, minute by minute: minute, policy, signal, ndcg, active_count."""
    n_pairs, n_minutes = len(report.policies) * len(report.signals), len(report.rankings.minutes)
    columns = (np.repeat(report.rankings.minutes, n_pairs).tolist(),
               [p for p in report.policies for _ in report.signals] * n_minutes,
               list(report.signals) * len(report.policies) * n_minutes,
               report.scores.transpose(2, 0, 1).ravel().tolist(),
               np.repeat(report.active_counts, n_pairs).tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("minute,policy,signal,ndcg,active_count\r\n")
        fh.writelines("%d,%s,%s,%.17g,%d\r\n" % row for row in zip(*columns))


def write_summary_csv(report: EvaluationReport, path) -> None:
    """Signal rows with mean/std columns per policy."""
    mean, std = (stat.tolist() for stat in mean_std(report.scores))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["signal"]
        for p in report.policies:
            header.extend([f"{p}_mean", f"{p}_std"])
        writer.writerow(header)
        for j, s in enumerate(report.signals):
            row = [s]
            for i in range(len(report.policies)):
                row.extend([format(mean[i][j], ".17g"), format(std[i][j], ".17g")])
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
    corr = pearson(report.scores, report.active_counts).tolist()
    lines.extend(f"pearson_active[{p},{s}] = {format(corr[i][j], '.17g')}"
                 for i, p in enumerate(report.policies) for j, s in enumerate(report.signals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
