"""Event-log ingestion and the columnar item table.

An event log is newline-delimited JSON. Each non-empty line is one flat
object with keys ``kind``, ``item_id``, ``event_id``, ``ts`` (integer
seconds), and ``account``. Lines starting with ``#`` are comments. A
parsed or generated log is one ``EventBatch``, a column per key, and
``build_timelines`` turns it into the ``ItemTable``.

``parse_event_log`` reads the log in blocks and has two decode paths. A
block whose every line has the writer's own form with unescaped strings
is decoded by one regex split; any other block by ``json.loads`` line by
line, which also words the errors. Duplicate event ids are checked once,
over the whole log, after the last block.

Time is discretized to minutes: an event with timestamp ``ts`` belongs to
minute ``ts // 60``. Events inside minute ``t`` count toward the interval
``[t, t+1)``, so the popularity of an item at decision minute ``t`` is the
number of retweets in minutes strictly before ``t``.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import ne, not_
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .config import MAX_TS, SECONDS_PER_MINUTE
from .errors import DataError, EventLogError

EVENT_KINDS = ("post", "retweet", "reply", "favorite")
ENGAGEMENT_KINDS = ("retweet", "reply", "favorite")

_REQUIRED_KEYS = ("kind", "item_id", "event_id", "ts", "account")

# Lines that ``parse_event_log`` decodes and checks together, and that
# ``serialize_event_log`` writes with one call.
_BLOCK_LINES = 2048

_KIND_CODES = {kind: code for code, kind in enumerate(EVENT_KINDS)}
# One serialized event; json.dumps gives the same bytes.
_LINE = '{"kind":"%s","item_id":%s,"event_id":%s,"ts":%d,"account":%s}\n'
# A JSON string body with no escape, no quote, no control character and
# no surrogate.
_PLAIN = r'[^"\\\x00-\x1f\ud800-\udfff]'
# A surrogate left unpaired by ``json.loads``: UTF-8 cannot encode it, so
# an id holding one could not be written to the snapshot CSV.
_SURROGATE = re.compile("[\ud800-\udfff]")
# One ``_LINE`` whose strings are plain, ended by the NUL that
# ``_decode_block`` puts after every line. A match is valid JSON with
# exactly the five keys, the kind one of ``EVENT_KINDS``, non-empty ids
# and a ts in 0..10**12 - 1; the groups are the five values.
_CANONICAL = re.compile(
    r'\{"kind":"(' + "|".join(EVENT_KINDS) + r')","item_id":"(' + _PLAIN + r'+)",'
    r'"event_id":"(' + _PLAIN + r'+)","ts":(0|[1-9][0-9]{0,11}),'
    r'"account":"(' + _PLAIN + r'*)"\}\n?\x00')


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Events in columns, one row per event.

    ``kind`` holds int8 codes into ``EVENT_KINDS`` and ``ts`` integer
    seconds as int64. Ids and accounts stay Python strings, so two ids
    that differ only by trailing NULs stay two ids.
    """

    kind: np.ndarray
    item_id: Sequence[str]
    event_id: Sequence[str]
    ts: np.ndarray
    account: Sequence[str]

    def __len__(self) -> int:
        return len(self.ts)


def _record(rec) -> tuple | str:
    """The kind code, item id, event id, ts and account of one decoded
    record, or the message of the first check it fails."""
    if type(rec) is not dict:
        return "record is not a JSON object"
    try:
        kind, item_id, event_id, ts, account = map(rec.__getitem__, _REQUIRED_KEYS)
    except KeyError:
        return f"missing key(s): {', '.join(k for k in _REQUIRED_KEYS if k not in rec)}"
    if type(kind) is not str or kind not in _KIND_CODES:
        return f"unknown kind {kind!r}"
    if type(item_id) is not str:
        return "item_id must be a string"
    if type(event_id) is not str:
        return "event_id must be a string"
    if type(account) is not str:
        return "account must be a string"
    if not item_id or not event_id:
        return "item_id and event_id must be non-empty"
    for key, text in (("item_id", item_id), ("event_id", event_id), ("account", account)):
        if _SURROGATE.search(text):
            return f"{key} holds a lone surrogate"
    if type(ts) is not int:
        return "ts must be an integer"
    if not 0 <= ts <= MAX_TS:
        return f"ts must lie in 0..{MAX_TS}"
    if kind == "post" and item_id != event_id:
        return "post events must have item_id equal to event_id"
    return _KIND_CODES[kind], item_id, event_id, ts, account


def _decode_block(block: list[str], start: int):
    """The columns of the good lines of ``block``, numbered from ``start``,
    their line numbers, and the line-numbered errors of the bad ones.

    A block of canonical lines is decoded by one regex split and its line
    numbers are a range; any other block goes line by line. Neither path
    compares event ids: ``parse_event_log`` does that once, for the log.
    """
    # Each match ends with one of the n NULs and holds no other, so n
    # matches and no text between them means n canonical lines.
    parts = _CANONICAL.split("\x00".join(block + [""]))
    if len(parts) == 6 * len(block) + 1 and not any(parts[::6]):
        item_ids, event_ids, accounts = parts[2::6], parts[3::6], parts[5::6]
        codes = list(map(_KIND_CODES.__getitem__, parts[1::6]))
        ts = list(map(int, parts[4::6]))
        posts = list(map(not_, codes))  # posts have kind code 0
        if max(ts) <= MAX_TS and not any(map(ne, compress(item_ids, posts),
                                             compress(event_ids, posts))):
            return (codes, item_ids, event_ids, ts, accounts), range(start, start + len(block)), []
    return _decode_lines(block, start)


def _decode_lines(block: list[str], start: int):
    """``_decode_block`` line by line: each line that is not blank or a
    comment is decoded by ``json.loads`` and checked by ``_record``.
    With no good line, the columns are the empty tuple."""
    rows, numbers, errors = [], [], []
    for lineno, text in enumerate(map(str.strip, block), start):
        if not text or text[0] == "#":
            continue
        try:
            found = _record(json.loads(text))
        except json.JSONDecodeError as exc:
            found = f"invalid JSON ({exc.msg})"
        except ValueError as exc:  # an integer of more than 4,300 digits
            found = f"invalid JSON ({exc})"
        except RecursionError:
            found = "invalid JSON (nested too deeply)"
        if isinstance(found, str):
            errors.append((lineno, found))
        else:
            rows.append(found)
            numbers.append(lineno)
    return tuple(map(list, zip(*rows))), numbers, errors


def _duplicates(event_ids: Iterable[str], numbers: Iterable[int]) -> list[tuple[int, str]]:
    """The line-numbered errors of the event ids, on lines ``numbers``,
    that an earlier line already holds."""
    first_line: dict[str, int] = {}
    errors = []
    for event_id, lineno in zip(event_ids, numbers):
        prev = first_line.setdefault(event_id, lineno)
        if prev != lineno:
            errors.append((lineno, f"duplicate event_id {event_id!r} (first at line {prev})"))
    return errors


def parse_event_log(source: str | bytes | Iterable[str]) -> EventBatch:
    """Parse an event log into one batch of events in file order.

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
        lines = iter(source)

    columns: tuple[list, ...] = ([], [], [], [], [])
    numbers: list[Sequence[int]] = []
    errors: list[tuple[int, str]] = []
    start = 1
    while block := list(islice(lines, _BLOCK_LINES)):
        decoded, block_numbers, bad = _decode_block(block, start)
        for column, values in zip(columns, decoded):
            column.extend(values)
        numbers.append(block_numbers)
        errors += bad
        start += len(block)
    kind, item_id, event_id, ts, account = columns
    if len(set(event_id)) < len(event_id):
        errors = sorted(errors + _duplicates(event_id, chain.from_iterable(numbers)))
    if errors:
        raise EventLogError(errors)
    return EventBatch(np.array(kind, dtype=np.int8), item_id, event_id,
                      np.array(ts, dtype=np.int64), account)


def serialize_event_log(batch: EventBatch, fh: TextIO) -> None:
    """Write ``batch`` to ``fh`` as newline-delimited JSON, one event a line.

    Each line is ``json.dumps`` of the event's record with separators
    ``(",", ":")``, written a block of lines at a time.
    """
    enc = encode_basestring_ascii
    rows = zip(map(EVENT_KINDS.__getitem__, batch.kind.tolist()), map(enc, batch.item_id),
               map(enc, batch.event_id), batch.ts.tolist(), map(enc, batch.account))
    while block := list(islice(rows, _BLOCK_LINES)):
        fh.write("".join([_LINE % row for row in block]))


def load_event_log(path) -> EventBatch:
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


def build_timelines(batch: EventBatch) -> ItemTable:
    """Gather a batch of events into one item table.

    Engagement referencing an item with no post is an error listing the
    offending ids, as is engagement dated before the post's minute.
    """
    is_post = batch.kind == 0
    post_ids = list(compress(batch.item_id, is_post.tolist()))
    ids = sorted(post_ids)
    row_of = dict(zip(ids, range(len(ids))))
    if len(row_of) < len(ids):
        repeated = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise DataError(f"duplicate post for item {repeated!r}")
    rows = np.fromiter(map(row_of.get, batch.item_id, repeat(-1)), dtype=np.int64,
                       count=len(batch))

    engaged = ~is_post
    orphans = sorted(set(compress(batch.item_id, (engaged & (rows < 0)).tolist())))
    if orphans:
        raise DataError(
            f"engagement for {len(orphans)} item(s) with no post: {', '.join(orphans)}"
        )

    post_ts = np.empty(len(ids), dtype=np.int64)
    post_ts[rows[is_post]] = batch.ts[is_post]
    post_minute = post_ts // SECONDS_PER_MINUTE
    where = np.flatnonzero(engaged)
    rows = rows[where]
    minutes = batch.ts[where] // SECONDS_PER_MINUTE
    early = np.flatnonzero(minutes < post_minute[rows])
    if early.size:
        i = where[early[0]]
        raise DataError(
            f"{EVENT_KINDS[batch.kind[i]]} {batch.event_id[i]!r} for item "
            f"{batch.item_id[i]!r} is dated minute {minutes[early[0]]}, "
            f"before the post minute {post_minute[rows[early[0]]]}"
        )

    stride = int(max(minutes.max(initial=0), post_minute.max(initial=0))) + 1
    codes = batch.kind[where]
    keys = {kind: np.sort((rows * stride + minutes)[codes == code])
            for code, kind in enumerate(EVENT_KINDS) if code}
    return ItemTable(ids=tuple(ids), post_ts=post_ts, keys=keys, stride=stride)


def hour_of_minute(t: int | np.ndarray) -> int | np.ndarray:
    """UTC hour of day for a minute index, or for an int array of them."""
    return (t % 1440) // 60
