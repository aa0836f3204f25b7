"""Feed construction: order the active items at each decision minute.

An item is active at decision minute ``t`` when it was posted before
``t`` and is at most ``horizon`` minutes old. ``rank_minutes`` is the
one pass over decision minutes: it finds each minute's active rows by
bisecting the sorted post minutes, classifies them with one
``classify`` call, and lets ``rank_items`` sort those same rows for
each policy.

Three policies are supported. ``index`` sorts by the priority index of
each item's current state, ``novelty`` by post time (newest first), and
``popularity`` by cumulative retweets received before the minute. All
ties break toward the more recently posted item, then ascending item id.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .events import ItemTable
from .indices import IndexTable
from .states import StateSpace, classify

POLICIES = ("index", "novelty", "popularity")
DEFAULT_HORIZON = 60


class MinuteRanking(NamedTuple):
    """The active items of one decision minute and their orderings."""

    minute: int
    rows: np.ndarray    # active table rows, ascending (item-id order)
    states: np.ndarray  # each active row's state at the minute
    orders: list[np.ndarray]  # per policy: positions into ``rows``, best first


def rank_items(policy: str, post_ts: np.ndarray, states: np.ndarray,
               retweets: np.ndarray, index_table: IndexTable | None) -> np.ndarray:
    """Order one minute's active items under one policy.

    The arrays describe the items in item-id order; the result lists
    their positions best first. ``np.lexsort`` is stable, so items
    equal on every key keep item-id order.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "index":
        if index_table is None:
            raise ConfigError("the index policy needs a computed index table")
        return np.lexsort((-post_ts, -index_table.g[states]))
    if policy == "novelty":
        return np.lexsort((-post_ts,))
    return np.lexsort((-post_ts, -retweets))


def rank_minutes(table: ItemTable, state_space: StateSpace,
                 index_table: IndexTable | None, policies: Sequence[str],
                 minutes: Iterable[int], horizon: int) -> Iterator[MinuteRanking]:
    """Yield one ``MinuteRanking`` per minute, orders in ``policies`` order.

    Minutes with no active item are left out.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    by_post = np.argsort(table.post_minute, kind="stable")
    post_minutes = table.post_minute[by_post].tolist()
    for t in minutes:
        rows = np.sort(by_post[bisect_left(post_minutes, t - horizon):
                               bisect_right(post_minutes, t - 1)])
        if not rows.size:
            continue
        retweets = table.count("retweet", rows, 0, t)
        states = classify(t - table.post_minute[rows], retweets, state_space.bins)
        post_ts = table.post_ts[rows]
        yield MinuteRanking(t, rows, states, [
            rank_items(p, post_ts, states, retweets, index_table) for p in policies])


def write_snapshots_csv(table: ItemTable, policies: Sequence[str],
                        rankings: Iterable[MinuteRanking], path) -> None:
    """Write rankings to a CSV with one row per ranked item."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["minute", "policy", "rank", "item_id", "state_index"])
        for r in rankings:
            for policy, order in zip(policies, r.orders):
                writer.writerows(
                    (r.minute, policy, rank, table.ids[row], state)
                    for rank, (row, state) in enumerate(
                        zip(r.rows[order].tolist(), r.states[order].tolist()), start=1))
