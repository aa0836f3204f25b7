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

import re
from typing import NamedTuple, Sequence

import numpy as np

from .config import POLICIES
from .errors import ConfigError
from .events import ItemTable

_NEEDS_QUOTES = re.compile('[,"\r\n]')
# Snapshot rows formatted per write, so a month's rows are never all held as strings.
_ROWS_PER_WRITE = 2**16


class Rankings(NamedTuple):
    """The active items of all ranked minutes and their orderings, one entry each."""

    minutes: np.ndarray  # the minutes with an active item, in the order given
    which: np.ndarray    # each entry's index into ``minutes``, ascending
    rows: np.ndarray     # each entry's table row, in item-id order within a minute
    states: np.ndarray   # each entry's state at its minute
    orders: np.ndarray   # a row per policy: entry positions, minute by minute, best first


def rank_items(policy: str, which: np.ndarray, post_ts: np.ndarray, states: np.ndarray,
               retweets: np.ndarray, g: np.ndarray | None) -> np.ndarray:
    """Order every minute's entries under one policy, minute by minute.

    The arrays describe the entries as ``Rankings`` lists them and ``g``
    each state's priority index; the result lists their positions best
    first within each minute. ``np.lexsort`` is stable, so entries equal
    on every key keep item-id order.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "index":
        if g is None:
            raise ConfigError("the index policy needs a computed index table")
        return np.lexsort((-post_ts, -g[states], which))
    if policy == "novelty":
        return np.lexsort((-post_ts, which))
    return np.lexsort((-post_ts, -retweets, which))


def _csv_field(text: str) -> str:
    """``text`` as a field of ``csv.writer``'s default dialect: quoted, its
    quotes doubled, when it holds a comma, a quote or a line break."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_snapshots_csv(table: ItemTable, policies: Sequence[str],
                        rankings: Rankings, path) -> None:
    """Write rankings to a CSV with one row per ranked item: minute by
    minute, policy by policy, best first."""
    r, n_policies = rankings, len(policies)
    starts = r.which.searchsorted(np.arange(len(r.minutes)))
    sizes = np.diff(starts, append=len(r.rows))
    ids = [_csv_field(item_id) for item_id in table.ids]
    n_rows = n_policies * len(r.rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("minute,policy,rank,item_id,state_index\r\n")
        for lo in range(0, n_rows, _ROWS_PER_WRITE):
            # Row ``o`` lies in minute ``which[o // n_policies]``, whose
            # rows hold each policy's ranking in turn.
            o = np.arange(lo, min(lo + _ROWS_PER_WRITE, n_rows))
            k = r.which[o // n_policies]
            policy, rank = np.divmod(o - n_policies * starts[k], sizes[k])
            entry = r.orders[policy, starts[k] + rank]
            columns = (r.minutes[k].tolist(), [policies[p] for p in policy.tolist()],
                       (rank + 1).tolist(), [ids[row] for row in r.rows[entry].tolist()],
                       r.states[entry].tolist())
            fh.writelines("%d,%s,%d,%s,%d\r\n" % row for row in zip(*columns))
