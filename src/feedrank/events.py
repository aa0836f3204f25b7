"""Event-log ingestion and the columnar item table.

An event log is newline-delimited JSON. Each non-empty line is one flat
object with keys ``kind``, ``item_id``, ``event_id``, ``ts`` (integer
seconds), and ``account``. Lines starting with ``#`` are comments.

Time is discretized to minutes: an event with timestamp ``ts`` belongs to
minute ``ts // 60``. Events inside minute ``t`` count toward the interval
``[t, t+1)``, so the popularity of an item at decision minute ``t`` is the
number of retweets in minutes strictly before ``t``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, EventLogError

EVENT_KINDS = ("post", "retweet", "reply", "favorite")
ENGAGEMENT_KINDS = ("retweet", "reply", "favorite")
SECONDS_PER_MINUTE = 60

_REQUIRED_KEYS = ("kind", "item_id", "event_id", "ts", "account")

# The largest accepted timestamp. It keeps every minute below 2**31, so
# the item table's int64 keys ``row * stride + minute`` cannot overflow
# for fewer than 2**32 items.
MAX_TS = 2**31 * SECONDS_PER_MINUTE - 1


@dataclass(frozen=True, slots=True)
class Event:
    kind: str
    item_id: str
    event_id: str
    ts: int
    account: str = ""

    @property
    def minute(self) -> int:
        return self.ts // SECONDS_PER_MINUTE


def _check_record(rec: object) -> str | None:
    """Return an error message for a decoded JSON line, or None if valid."""
    if not isinstance(rec, dict):
        return "record is not a JSON object"
    missing = [k for k in _REQUIRED_KEYS if k not in rec]
    if missing:
        return f"missing key(s): {', '.join(missing)}"
    if rec["kind"] not in EVENT_KINDS:
        return f"unknown kind {rec['kind']!r}"
    for key in ("item_id", "event_id", "account"):
        if not isinstance(rec[key], str):
            return f"{key} must be a string"
    if not rec["item_id"] or not rec["event_id"]:
        return "item_id and event_id must be non-empty"
    ts = rec["ts"]
    if isinstance(ts, bool) or not isinstance(ts, int):
        return "ts must be an integer"
    if not 0 <= ts <= MAX_TS:
        return f"ts must lie in 0..{MAX_TS}"
    if rec["kind"] == "post" and rec["item_id"] != rec["event_id"]:
        return "post events must have item_id equal to event_id"
    return None


def parse_event_log(source: str | bytes | Iterable[str]) -> list[Event]:
    """Parse an event log into a list of events in file order.

    ``source`` may be a string, bytes, or an iterable of lines (for
    example an open file). All malformed lines are collected and
    reported together with their line numbers; an ``event_id`` seen on
    an earlier line is an error as well.
    """
    if isinstance(source, bytes):
        try:
            lines: Iterable[str] = io.StringIO(source.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"event log is not UTF-8: {exc}") from exc
    elif isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source

    events: list[Event] = []
    errors: list[tuple[int, str]] = []
    event_lines: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append((lineno, f"invalid JSON ({exc.msg})"))
            continue
        problem = _check_record(rec)
        if problem is not None:
            errors.append((lineno, problem))
            continue
        prev = event_lines.setdefault(rec["event_id"], lineno)
        if prev != lineno:
            errors.append(
                (lineno, f"duplicate event_id {rec['event_id']!r} (first at line {prev})")
            )
            continue
        events.append(
            Event(
                kind=rec["kind"],
                item_id=rec["item_id"],
                event_id=rec["event_id"],
                ts=rec["ts"],
                account=rec["account"],
            )
        )
    if errors:
        raise EventLogError(errors)
    return events


def serialize_event_log(events: Iterable[Event]) -> str:
    """Serialize events to newline-delimited JSON, one record per line."""
    out = []
    for ev in events:
        rec = {
            "kind": ev.kind,
            "item_id": ev.item_id,
            "event_id": ev.event_id,
            "ts": ev.ts,
            "account": ev.account,
        }
        out.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(out) + ("\n" if out else "")


def load_event_log(path) -> list[Event]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_event_log(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read event log {path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ItemTable:
    """Posted items, one row each in item-id order, and their engagement.

    ``keys[kind]`` holds one entry ``row * stride + minute`` per event of
    that engagement kind, sorted, with every minute below ``stride``. So
    the events of any rows over any minute range are counted by two
    ``np.searchsorted`` calls (see ``count``).
    """

    ids: tuple[str, ...]
    post_ts: np.ndarray
    keys: Mapping[str, np.ndarray]
    stride: int

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def post_minute(self) -> np.ndarray:
        return self.post_ts // SECONDS_PER_MINUTE

    def count(self, kind: str, rows, start, stop) -> np.ndarray:
        """Events of ``kind`` for each of ``rows`` in minutes ``[start, stop)``.

        ``start`` and ``stop`` are minutes or arrays of minutes, one per
        row. The popularity of an item at decision minute ``t`` is
        ``count("retweet", rows, 0, t)``: the retweets strictly before ``t``.
        """
        keys = self.keys[kind]
        base = np.asarray(rows, dtype=np.int64) * self.stride
        return (keys.searchsorted(base + np.minimum(np.maximum(stop, 0), self.stride))
                - keys.searchsorted(base + np.minimum(np.maximum(start, 0), self.stride)))

    def events(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The row and the minute of every event of ``kind``."""
        return np.divmod(self.keys[kind], self.stride)

    def take(self, mask) -> ItemTable:
        """The table of the rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        new_row = np.cumsum(mask) - 1
        keys = {}
        for kind in ENGAGEMENT_KINDS:
            rows, minutes = self.events(kind)
            keep = mask[rows]
            keys[kind] = new_row[rows[keep]] * self.stride + minutes[keep]
        return ItemTable(ids=tuple(compress(self.ids, mask)),
                         post_ts=self.post_ts[mask], keys=keys, stride=self.stride)


def build_timelines(events: Iterable[Event]) -> ItemTable:
    """Gather events into one item table.

    Engagement referencing an item with no post is an error listing the
    offending ids, as is engagement dated before the post's minute.
    """
    posts: dict[str, int] = {}
    engagement: list[Event] = []
    for ev in events:
        if ev.kind == "post":
            if ev.item_id in posts:
                raise DataError(f"duplicate post for item {ev.item_id!r}")
            posts[ev.item_id] = ev.ts
        else:
            engagement.append(ev)

    orphans = sorted({ev.item_id for ev in engagement if ev.item_id not in posts})
    if orphans:
        raise DataError(
            f"engagement for {len(orphans)} item(s) with no post: {', '.join(orphans)}"
        )

    ids = sorted(posts)
    row_of = {iid: row for row, iid in enumerate(ids)}
    post_ts = np.array([posts[iid] for iid in ids], dtype=np.int64)
    rows = np.array([row_of[ev.item_id] for ev in engagement], dtype=np.int64)
    minutes = np.array([ev.ts for ev in engagement], dtype=np.int64) // SECONDS_PER_MINUTE
    post_minute = post_ts // SECONDS_PER_MINUTE
    early = np.flatnonzero(minutes < post_minute[rows])
    if early.size:
        ev = engagement[early[0]]
        raise DataError(
            f"{ev.kind} {ev.event_id!r} for item {ev.item_id!r} is dated "
            f"minute {ev.minute}, before the post minute {post_minute[rows[early[0]]]}"
        )

    stride = int(max(minutes.max(initial=0), post_minute.max(initial=0))) + 1
    kinds = np.array([ENGAGEMENT_KINDS.index(ev.kind) for ev in engagement], dtype=np.int8)
    keys = {kind: np.sort((rows * stride + minutes)[kinds == k])
            for k, kind in enumerate(ENGAGEMENT_KINDS)}
    return ItemTable(ids=tuple(ids), post_ts=post_ts, keys=keys, stride=stride)


def hour_of_minute(t: int) -> int:
    """UTC hour of day for a minute index."""
    return (t % 1440) // 60
