"""Feed construction: order the active items at each decision minute.

An item is active at decision minute ``t`` when it was posted before
``t`` and is at most ``horizon`` minutes old. ``rank_minutes`` is the
one pass over decision minutes: it finds each minute's active set by
bisecting the sorted post minutes, classifies every active item once,
and lets ``rank_items`` sort those same entries for each policy.

Three policies are supported. ``index`` sorts by the priority index of
each item's current state, ``novelty`` by post time (newest first), and
``popularity`` by cumulative retweets received before the minute. All
ties break toward the more recently posted item, then ascending item id.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .events import ItemTimeline
from .indices import IndexTable
from .states import StateSpace, classify_minute

POLICIES = ("index", "novelty", "popularity")
DEFAULT_HORIZON = 60


class FeedEntry(NamedTuple):
    """One active item at one decision minute."""

    item_id: str
    post_ts: int
    state: int
    retweets: int  # retweets strictly before the minute


@dataclass(frozen=True)
class RankingSnapshot:
    """One policy's ordering of the active items at one minute."""

    minute: int
    policy: str
    item_ids: tuple[str, ...]
    state_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.item_ids)


def rank_items(t: int, entries: Sequence[FeedEntry], policy: str,
               index_table: IndexTable | None) -> RankingSnapshot:
    """Order one minute's entries under one policy."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "index":
        if index_table is None:
            raise ConfigError("the index policy needs a computed index table")
        g = index_table.g
        ranked = sorted(entries, key=lambda e: (-g[e.state], -e.post_ts, e.item_id))
    elif policy == "novelty":
        ranked = sorted(entries, key=lambda e: (-e.post_ts, e.item_id))
    else:
        ranked = sorted(entries, key=lambda e: (-e.retweets, -e.post_ts, e.item_id))
    return RankingSnapshot(
        minute=t,
        policy=policy,
        item_ids=tuple(e.item_id for e in ranked),
        state_indices=tuple(e.state for e in ranked),
    )


def rank_minutes(timelines: Mapping[str, ItemTimeline], state_space: StateSpace,
                 index_table: IndexTable | None, policies: Sequence[str],
                 minutes: Iterable[int], horizon: int,
                 ) -> Iterator[tuple[int, list[str], list[RankingSnapshot]]]:
    """Yield ``(t, active ids, one snapshot per policy)`` for each minute.

    The active ids are sorted by id. Minutes with no active item are
    left out.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    by_post = sorted((tl.post_minute, iid) for iid, tl in timelines.items())
    post_minutes = [m for m, _ in by_post]
    post_ids = [iid for _, iid in by_post]
    for t in minutes:
        ids = sorted(post_ids[bisect_left(post_minutes, t - horizon):
                              bisect_right(post_minutes, t - 1)])
        if not ids:
            continue
        entries = []
        for iid in ids:
            tl = timelines[iid]
            entries.append(FeedEntry(iid, tl.post_ts, classify_minute(tl, t, state_space),
                                     tl.retweets_before(t)))
        yield t, ids, [rank_items(t, entries, p, index_table) for p in policies]


def write_snapshots_csv(rankings: Iterable[tuple[int, list[str], list[RankingSnapshot]]],
                        path) -> None:
    """Stream ``rank_minutes`` output to a CSV with one row per ranked item."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["minute", "policy", "rank", "item_id", "state_index"])
        for _, _, snapshots in rankings:
            for snap in snapshots:
                for rank, (iid, state) in enumerate(
                        zip(snap.item_ids, snap.state_indices), start=1):
                    writer.writerow([snap.minute, snap.policy, rank, iid, state])
