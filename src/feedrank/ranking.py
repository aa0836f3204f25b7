"""Feed construction: order the active items of every decision minute.

``evaluation.rank_window`` lists the active items of all decision
minutes as one batch of (minute, row) entries and classifies them once;
``rank_items`` sorts those entries under each policy, minute by minute.

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
