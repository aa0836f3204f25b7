"""Event-log ingestion and per-item minute timelines.

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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DataError, EventLogError

EVENT_KINDS = ("post", "retweet", "reply", "favorite")
ENGAGEMENT_KINDS = ("retweet", "reply", "favorite")
SECONDS_PER_MINUTE = 60

_REQUIRED_KEYS = ("kind", "item_id", "event_id", "ts", "account")


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
    if ts < 0:
        return "ts must be non-negative"
    if rec["kind"] == "post" and rec["item_id"] != rec["event_id"]:
        return "post events must have item_id equal to event_id"
    return None


def parse_event_log(source: str | bytes | Iterable[str]) -> list[Event]:
    """Parse an event log into a list of events in file order.

    ``source`` may be a string, bytes, or an iterable of lines (for
    example an open file). All malformed lines are collected and
    reported together with their line numbers; duplicate posts for the
    same item are an error as well.
    """
    if isinstance(source, bytes):
        lines: Iterable[str] = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source

    events: list[Event] = []
    errors: list[tuple[int, str]] = []
    post_lines: dict[str, int] = {}
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
        if rec["kind"] == "post":
            prev = post_lines.get(rec["item_id"])
            if prev is not None:
                errors.append(
                    (lineno, f"duplicate post for item {rec['item_id']!r} (first at line {prev})")
                )
                continue
            post_lines[rec["item_id"]] = lineno
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
    except OSError as exc:
        raise DataError(f"cannot read event log {path}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class ItemTimeline:
    """Per-minute engagement counts for one posted item.

    ``per_minute_counts`` maps a minute index to a
    ``(retweets, replies, favorites)`` triple. The cumulative retweet
    count at minute ``m`` is the total over minutes <= m. Instances are
    immutable after construction.
    """

    item_id: str
    post_ts: int
    account: str
    per_minute_counts: Mapping[int, tuple[int, int, int]]
    _rt_minutes: tuple[int, ...]
    _rt_cumulative: tuple[int, ...]

    @property
    def post_minute(self) -> int:
        return self.post_ts // SECONDS_PER_MINUTE

    def counts_in_minute(self, minute: int) -> tuple[int, int, int]:
        return self.per_minute_counts.get(minute, (0, 0, 0))

    def cumulative_retweets(self, through_minute: int) -> int:
        """Total retweets in minutes <= ``through_minute``."""
        idx = bisect_right(self._rt_minutes, through_minute)
        return self._rt_cumulative[idx]

    def retweets_before(self, minute: int) -> int:
        """Total retweets strictly before ``minute``. This is the
        popularity count used for the item's state at decision minute
        ``minute``."""
        return self.cumulative_retweets(minute - 1)

    @property
    def final_retweet_count(self) -> int:
        return self._rt_cumulative[-1]


def _make_timeline(item_id: str, post_ts: int, account: str,
                   counts: dict[int, list[int]]) -> ItemTimeline:
    minutes = sorted(m for m, c in counts.items() if c[0] > 0)
    cumulative = [0]
    for m in minutes:
        cumulative.append(cumulative[-1] + counts[m][0])
    frozen = {m: (c[0], c[1], c[2]) for m, c in sorted(counts.items())}
    return ItemTimeline(
        item_id=item_id,
        post_ts=post_ts,
        account=account,
        per_minute_counts=frozen,
        _rt_minutes=tuple(minutes),
        _rt_cumulative=tuple(cumulative),
    )


_KIND_SLOT = {"retweet": 0, "reply": 1, "favorite": 2}


def build_timelines(events: Iterable[Event]) -> dict[str, ItemTimeline]:
    """Group events into per-item timelines keyed by item_id.

    Engagement referencing an item with no post is an error listing the
    offending ids, as is engagement dated before the post's minute.
    """
    posts: dict[str, Event] = {}
    engagement: list[Event] = []
    for ev in events:
        if ev.kind == "post":
            if ev.item_id in posts:
                raise DataError(f"duplicate post for item {ev.item_id!r}")
            posts[ev.item_id] = ev
        else:
            engagement.append(ev)

    orphans = sorted({ev.item_id for ev in engagement if ev.item_id not in posts})
    if orphans:
        raise DataError(
            f"engagement for {len(orphans)} item(s) with no post: {', '.join(orphans)}"
        )

    counts: dict[str, dict[int, list[int]]] = {iid: {} for iid in posts}
    for ev in engagement:
        post_minute = posts[ev.item_id].minute
        minute = ev.minute
        if minute < post_minute:
            raise DataError(
                f"{ev.kind} {ev.event_id!r} for item {ev.item_id!r} is dated "
                f"minute {minute}, before the post minute {post_minute}"
            )
        slot = counts[ev.item_id].setdefault(minute, [0, 0, 0])
        slot[_KIND_SLOT[ev.kind]] += 1

    return {
        iid: _make_timeline(iid, posts[iid].ts, posts[iid].account, counts[iid])
        for iid in sorted(posts)
    }


def hour_of_minute(t: int) -> int:
    """UTC hour of day for a minute index."""
    return (t % 1440) // 60
