"""Feed construction: order the active items at each decision minute.

An item is active at decision minute ``t`` when it was posted before
``t`` and is at most ``horizon`` minutes old. ``rank_minutes`` ranks
every decision minute in one batch: it finds all active rows with two
``searchsorted`` calls over the sorted post minutes, classifies every
(minute, row) entry with one ``classify`` call, and lets ``rank_items``
sort those same entries for each policy.

Three policies are supported. ``index`` sorts by the priority index of
each item's current state, ``novelty`` by post time (newest first), and
``popularity`` by cumulative retweets received before the minute. All
ties break toward the more recently posted item, then ascending item id.
"""

from __future__ import annotations

import csv
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .events import ItemTable
from .indices import IndexTable
from .states import StateSpace, classify

POLICIES = ("index", "novelty", "popularity")
DEFAULT_HORIZON = 60


class Rankings(NamedTuple):
    """The active items of all ranked minutes and their orderings, one entry each."""

    minutes: np.ndarray  # the minutes with an active item, in the order given
    which: np.ndarray    # each entry's index into ``minutes``, ascending
    rows: np.ndarray     # each entry's table row, in item-id order within a minute
    states: np.ndarray   # each entry's state at its minute
    orders: np.ndarray   # a row per policy: entry positions, minute by minute, best first


def rank_items(policy: str, which: np.ndarray, post_ts: np.ndarray, states: np.ndarray,
               retweets: np.ndarray, index_table: IndexTable | None) -> np.ndarray:
    """Order every minute's entries under one policy, minute by minute.

    The arrays describe the entries as ``Rankings`` lists them; the result
    lists their positions best first within each minute. ``np.lexsort`` is
    stable, so entries equal on every key keep item-id order.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "index":
        if index_table is None:
            raise ConfigError("the index policy needs a computed index table")
        return np.lexsort((-post_ts, -index_table.g[states], which))
    if policy == "novelty":
        return np.lexsort((-post_ts, which))
    return np.lexsort((-post_ts, -retweets, which))


def rank_minutes(table: ItemTable, state_space: StateSpace,
                 index_table: IndexTable | None, policies: Sequence[str],
                 minutes: Sequence[int], horizon: int) -> Rankings:
    """Rank the active items of all ``minutes``, orders in ``policies`` order.

    Minutes with no active item are left out.
    """
    by_post = np.argsort(table.post_minute, kind="stable")
    minutes = np.asarray(minutes, dtype=np.int64)
    lo = table.post_minute.searchsorted(minutes - horizon, "left", sorter=by_post)
    counts = table.post_minute.searchsorted(minutes - 1, "right", sorter=by_post) - lo
    minutes, lo, counts = minutes[counts > 0], lo[counts > 0], counts[counts > 0]
    which = np.repeat(np.arange(len(minutes)), counts)
    # The k-th entry of a minute is the k-th of its post-ordered rows.
    rows = by_post[np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(len(which))]
    rows = rows[np.lexsort((rows, which))]
    t = minutes[which]
    retweets = table.count("retweet", rows, 0, t)
    states = classify(t - table.post_minute[rows], retweets, state_space.bins)
    post_ts = table.post_ts[rows]
    orders = np.empty((len(policies), len(rows)), dtype=np.intp)
    for k, policy in enumerate(policies):
        orders[k] = rank_items(policy, which, post_ts, states, retweets, index_table)
    return Rankings(minutes, which, rows, states, orders)


def write_snapshots_csv(table: ItemTable, policies: Sequence[str],
                        rankings: Rankings, path) -> None:
    """Write rankings to a CSV with one row per ranked item."""
    r = rankings
    bounds = r.which.searchsorted(np.arange(len(r.minutes) + 1)).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["minute", "policy", "rank", "item_id", "state_index"])
        for minute, lo, hi in zip(r.minutes.tolist(), bounds, bounds[1:]):
            for policy, order in zip(policies, r.orders):
                writer.writerows(
                    (minute, policy, rank, table.ids[row], state)
                    for rank, (row, state) in enumerate(zip(
                        r.rows[order[lo:hi]].tolist(), r.states[order[lo:hi]].tolist()), start=1))
