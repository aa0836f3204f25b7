import io
import json
from json.encoder import encode_basestring_ascii
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventlog import line as make_line, rows
from feedrank import events
from feedrank.errors import DataError, EventLogError
from feedrank.events import (
    MAX_TS, EventBatch, build_timelines, parse_event_log, serialize_event_log,
)
from oracles import parse_reference


def table_of(lines):
    return build_timelines(parse_event_log(lines))


def serialized(batch):
    out = io.StringIO()
    serialize_event_log(batch, out)
    return out.getvalue()


def test_table_minutes_are_floors_of_seconds():
    table = table_of([make_line("post", "w", "w", 0), make_line("post", "x", "x", 59),
                      make_line("post", "y", "y", 60), make_line("post", "z", "z", 119),
                      make_line("retweet", "z", "z-r", 119), make_line("reply", "z", "z-p", 120)])
    assert table.post_minute.tolist() == [0, 0, 1, 1]
    assert table.events("retweet")[1].tolist() == [1]
    assert table.events("reply")[1].tolist() == [2]


def test_parse_round_trip_and_order():
    text = "\n".join([
        make_line("post", "t1", "t1", 60),
        "# a comment",
        "",
        make_line("retweet", "t1", "t1-r1", 130),
        make_line("favorite", "t1", "t1-f1", 140),
    ]) + "\n"
    events = parse_event_log(text)
    assert [kind for kind, *_ in rows(events)] == ["post", "retweet", "favorite"]
    assert serialized(events) == serialized(parse_event_log(serialized(events)))


def test_parse_accepts_bytes_and_iterables():
    line = make_line("post", "t1", "t1", 0)
    assert rows(parse_event_log(line.encode())) == rows(parse_event_log([line]))


def test_parse_collects_all_bad_lines():
    lines = [
        "{not json",
        json.dumps({"kind": "post", "item_id": "a", "ts": 0}),
        make_line("boost", "a", "a", 0),
        make_line("retweet", "", "r1", 0),
        make_line("post", "b", "b", -5),
        make_line("post", "c", "c", True),
        make_line("post", "d", "d2", 0),
        make_line("post", "e", "e", 0),
        make_line("post", "e", "e", 60),
    ]
    with pytest.raises(EventLogError) as exc_info:
        parse_event_log("\n".join(lines))
    err = exc_info.value
    assert [n for n, _ in err.line_errors] == [1, 2, 3, 4, 5, 6, 7, 9]
    assert "and 3 more" in str(err)
    assert "first at line 8" in err.line_errors[-1][1]


def test_lines_that_are_valid_only_when_joined_are_each_rejected():
    # Joined into one JSON array these three lines decode as three posts.
    post = make_line("post", "a", "a", 0)[:-1]
    lines = [post + ', "z": [{"y": 1}', '{"w": 2}]}',
             make_line("post", "b", "b", 0) + "," + make_line("post", "c", "c", 0)]
    with pytest.raises(EventLogError) as exc_info:
        parse_event_log("\n".join(lines))
    assert [n for n, _ in exc_info.value.line_errors] == [1, 2, 3]
    for line in lines:
        with pytest.raises(EventLogError):
            parse_event_log(line)


def test_ids_that_differ_by_a_trailing_nul_are_two_items():
    table = table_of([make_line("post", "a", "a", 0), make_line("post", "a\u0000", "a\u0000", 60),
                      make_line("retweet", "a\u0000", "r", 120)])
    assert table.ids == ("a", "a\u0000")
    assert table.count("retweet", [0, 1], 0, table.stride).tolist() == [0, 1]


def test_parse_rejects_float_timestamps():
    with pytest.raises(EventLogError):
        parse_event_log(make_line("post", "a", "a", 1.5))


@pytest.mark.parametrize("kind", ["retweet", "reply", "favorite"])
def test_parse_rejects_a_repeated_event_id(kind):
    lines = [make_line("post", "t1", "t1", 0),
             make_line(kind, "t1", "t1-e1", 60),
             make_line(kind, "t1", "t1-e1", 60)]
    with pytest.raises(EventLogError) as exc_info:
        parse_event_log("\n".join(lines))
    [(lineno, msg)] = exc_info.value.line_errors
    assert lineno == 3
    assert "duplicate event_id 't1-e1'" in msg and "first at line 2" in msg


def test_parse_bounds_timestamps():
    assert parse_event_log(make_line("post", "a", "a", MAX_TS)).ts.tolist() == [MAX_TS]
    for ts in (MAX_TS + 1, 10 ** 23):
        with pytest.raises(EventLogError) as exc_info:
            parse_event_log("\n".join([make_line("post", "b", "b", 0),
                                       make_line("post", "a", "a", ts)]))
        assert [n for n, _ in exc_info.value.line_errors] == [2]
    # The largest minute still fits the table's keys.
    table = table_of([make_line("post", "a", "a", MAX_TS),
                      make_line("retweet", "a", "a-r", MAX_TS)])
    assert table.count("retweet", [0], 0, MAX_TS // 60 + 1).tolist() == [1]


def test_parse_rejects_bytes_that_are_not_utf8():
    with pytest.raises(DataError):
        parse_event_log(b"\xff\xfe" + make_line("post", "a", "a", 0).encode())


def test_build_timelines_counts_and_popularity():
    events = parse_event_log("\n".join([
        make_line("post", "t1", "t1", 600),         # minute 10
        make_line("retweet", "t1", "t1-r1", 660),   # minute 11
        make_line("retweet", "t1", "t1-r2", 690),   # minute 11
        make_line("reply", "t1", "t1-p1", 660),
        make_line("retweet", "t1", "t1-r3", 780),   # minute 13
        make_line("post", "t2", "t2", 615),
    ]))
    table = build_timelines(events)
    assert table.ids == ("t1", "t2")
    assert table.post_minute.tolist() == [10, 10]

    def during(t):
        return tuple(int(table.count(kind, [0], t, t + 1)[0])
                     for kind in ("retweet", "reply", "favorite"))

    assert during(11) == (2, 1, 0)
    assert during(12) == (0, 0, 0)
    # Retweets in minute 11 count toward [11, 12): visible from minute 12 on.
    minutes = np.array([11, 12, 13, 14])
    assert table.count("retweet", np.zeros(4, dtype=int), 0, minutes).tolist() == [0, 2, 2, 3]
    # Final counts, one vectorized count over every row.
    assert table.count("retweet", [0, 1], 0, table.stride).tolist() == [3, 0]


def test_build_timelines_rejects_orphans():
    lines = [
        make_line("post", "t1", "t1", 0),
        make_line("retweet", "ghost", "g-r1", 60),
        make_line("reply", "ghost2", "g2-p1", 60),
    ]
    with pytest.raises(DataError) as exc_info:
        table_of(lines)
    assert "ghost" in str(exc_info.value)
    assert "ghost2" in str(exc_info.value)


def test_build_timelines_rejects_engagement_before_post():
    lines = [
        make_line("post", "t1", "t1", 600),
        make_line("retweet", "t1", "t1-r1", 540),
    ]
    with pytest.raises(DataError):
        table_of(lines)


def test_engagement_in_post_minute_is_allowed():
    lines = [
        make_line("post", "t1", "t1", 605),
        make_line("retweet", "t1", "t1-r1", 601),  # same minute, earlier second
    ]
    table = table_of(lines)
    assert table.count("retweet", [0], 10, 11).tolist() == [1]


def test_serialize_is_compact_single_lines():
    text = serialized(parse_event_log(make_line("post", "t1", "t1", 0, "acct")))
    assert text == ('{"kind":"post","item_id":"t1","event_id":"t1",'
                    '"ts":0,"account":"acct"}\n')
    assert serialized(parse_event_log("")) == ""


def test_take_keeps_the_masked_rows_and_their_events():
    table = table_of([
        make_line("post", "a", "a", 0), make_line("post", "b", "b", 60),
        make_line("post", "c", "c", 120),
        make_line("retweet", "a", "a-r", 60), make_line("reply", "b", "b-p", 120),
        make_line("retweet", "c", "c-r1", 180), make_line("retweet", "c", "c-r2", 240),
    ])
    sub = table.take([True, False, True])
    assert sub.ids == ("a", "c")
    assert sub.post_ts.tolist() == [0, 120]
    assert sub.count("retweet", [0, 1], 0, sub.stride).tolist() == [1, 2]
    assert sub.count("reply", [0, 1], 0, sub.stride).tolist() == [0, 0]
    rows, minutes = sub.events("retweet")
    assert rows.tolist() == [0, 1, 1] and minutes.tolist() == [1, 3, 4]


_TEXT = st.text(max_size=3)  # any code point but surrogates: non-ASCII, NUL, quotes
_EXTRA = st.sampled_from([None, 1.5, "x", [1, {"k": [None]}], {"kind": "post"}])


@st.composite
def event_logs(draw):
    """Lines of a log of well-formed events, at most one of them corrupted."""
    records = []
    for k in range(draw(st.integers(1, 5))):
        item = f"i{k}{draw(_TEXT)}"
        post_ts = draw(st.integers(0, 5000))
        records.append({"kind": "post", "item_id": item, "event_id": item, "ts": post_ts,
                        "account": draw(_TEXT)})
        for j in range(draw(st.integers(0, 4))):
            records.append({"kind": draw(st.sampled_from(events.EVENT_KINDS[1:])),
                            "item_id": item, "event_id": f"e{k}.{j}.{draw(_TEXT)}",
                            "ts": post_ts // 60 * 60 + draw(st.integers(0, 3000)),
                            "account": draw(_TEXT)})
    records = draw(st.permutations(records))

    def render(rec):
        rec = {key: rec[key] for key in draw(st.permutations(list(rec)))}
        if draw(st.booleans()):
            rec["extra"] = draw(_EXTRA)
        text = json.dumps(rec, ensure_ascii=draw(st.booleans()),
                          separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
        pad = st.sampled_from(["", " ", "\t", " \t "])
        return draw(pad) + text + draw(pad)

    lines = [render(rec) for rec in records]
    how = draw(st.sampled_from(["none", "none", "truncate", "array", "drop-key", "kind",
                                "id-type", "empty-id", "ts", "post-id", "repeat",
                                "extra-data", "drop-post", "early"]))
    i = draw(st.integers(0, len(records) - 1))
    rec = dict(records[i])
    if how == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    elif how == "array":
        lines[i] = json.dumps([rec])
    elif how == "drop-key":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif how == "kind":
        rec["kind"] = draw(st.sampled_from(["boost", "", ["post"], 1]))
    elif how == "id-type":
        rec[draw(st.sampled_from(["item_id", "event_id", "account"]))] = draw(_EXTRA)
    elif how == "empty-id":
        rec[draw(st.sampled_from(["item_id", "event_id"]))] = ""
    elif how == "ts":
        rec["ts"] = draw(st.sampled_from([-1, MAX_TS + 1, 10 ** 30, 1.5, 60.0, True, "60"]))
    elif how == "post-id" and rec["kind"] == "post":
        rec["event_id"] += "x"
    elif how == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif how == "extra-data":
        lines[i] += draw(st.sampled_from([" ", ",", ""])) + lines[i]
    elif how == "drop-post" and rec["kind"] == "post":
        del lines[i]
    elif how == "early" and rec["kind"] != "post" and rec["ts"] >= 120:
        rec["ts"] -= 120
    if rec != records[i]:
        lines[i] = json.dumps(rec)
    # A line copied further down as well, so a repeat may share a block with the corruption.
    if lines and draw(st.booleans()):
        j = draw(st.integers(0, len(lines) - 1))
        lines.insert(draw(st.integers(j + 1, len(lines))), lines[j])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "# a comment", "  #{not json"])))
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=event_logs(), block=st.sampled_from([1, 2, 3, 7, events._BLOCK_LINES]))
def test_parse_and_build_match_the_per_line_reference(lines, block):
    text = "\n".join(lines) + "\n"
    try:
        expected = parse_reference(text)
    except ValueError as exc:
        expected = exc.args[0]
    with mock.patch.object(events, "_BLOCK_LINES", block):
        try:
            batch = parse_event_log(text)
            table = build_timelines(batch)
        except EventLogError as exc:
            assert exc.line_errors == expected
            return
        except DataError as exc:
            assert str(exc) == expected
            return
        ids, post_ts, keys, stride = expected
        assert table.ids == ids and table.stride == stride
        assert table.post_ts.tolist() == post_ts.tolist()
        assert {k: v.tolist() for k, v in table.keys.items()} == \
            {k: v.tolist() for k, v in keys.items()}
        # Written back, each line is what json.dumps writes for the event.
        text = serialized(batch)
    assert text == "".join(
        json.dumps(dict(zip(("kind", "item_id", "event_id", "ts", "account"), row)),
                   separators=(",", ":")) + "\n"
        for row in rows(batch))
    assert rows(parse_event_log(text)) == rows(batch)


def assert_matches_reference(text):
    """Parse and build ``text``; the table or the errors are the reference's."""
    try:
        expected = parse_reference(text)
    except ValueError as exc:
        expected = exc.args[0]
    try:
        table = build_timelines(parse_event_log(text))
    except EventLogError as exc:
        assert exc.line_errors == expected
        return
    except DataError as exc:
        assert str(exc) == expected
        return
    ids, post_ts, keys, stride = expected
    assert table.ids == ids and table.stride == stride
    assert table.post_ts.tolist() == post_ts.tolist()
    assert {k: v.tolist() for k, v in table.keys.items()} == \
        {k: v.tolist() for k, v in keys.items()}


# Strings that ``_LINE`` may hold as they are: no quote, no backslash and
# no control character, but any other code point (non-ASCII included).
_PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, blacklist_categories=("Cs",),
                                    blacklist_characters='"\\'), max_size=3)


@st.composite
def canonical_logs(draw):
    """A log in the ``_LINE`` form with unescaped strings, with up to two
    near-canonical changes or repeated lines and comment and blank lines
    mixed in."""
    records = []
    for k in range(draw(st.integers(1, 6))):
        item = f"i{k}{draw(_PLAIN_TEXT)}"
        post_ts = draw(st.integers(0, 5000))
        records.append(["post", item, item, str(post_ts), draw(_PLAIN_TEXT)])
        for j in range(draw(st.integers(0, 4))):
            records.append([draw(st.sampled_from(events.EVENT_KINDS[1:])), item,
                            f"e{k}.{j}.{draw(_PLAIN_TEXT)}",
                            str(post_ts // 60 * 60 + draw(st.integers(0, 3000))),
                            draw(_PLAIN_TEXT)])
    records = draw(st.permutations(records))
    hows = draw(st.lists(st.sampled_from(["ts", "raw", "escape", "text", "repeat"]), max_size=2))
    for how in hows:
        if how == "repeat":
            continue
        rec = records[draw(st.integers(0, len(records) - 1))]
        if how == "ts":
            # "1" * 5000 is past int()'s 4,300-digit limit, so json.dumps cannot write it.
            rec[3] = draw(st.sampled_from(["0" + rec[3], "1" + "0" * 12, str(MAX_TS + 1), "-1",
                                           str(MAX_TS), "1" * 5000]))
            continue
        piece = draw(st.sampled_from({"raw": ["\t", "\x00"],
                                      "escape": ['\\"', "\\u00e9", "\\u0041", "\\\\"],
                                      "text": ["é", "☃", "\U0001f600", "\x7f"]}[how]))
        field = draw(st.sampled_from([1, 2, 4]))
        at = draw(st.integers(0, len(rec[field])))
        rec[field] = rec[field][:at] + piece + rec[field][at:]
        if rec[0] == "post" and field < 4 and draw(st.booleans()):
            rec[3 - field] = rec[field]  # a post whose ids still agree
    lines = ['{"kind":"%s","item_id":"%s","event_id":"%s","ts":%s,"account":"%s"}' % tuple(rec)
             for rec in records]
    for _ in range(hows.count("repeat")):  # a line copied further down
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += "\r"
    # Blank and comment lines, one of them perhaps an event commented out.
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "# a comment", "#" + lines[0]])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300, deadline=None)
@given(text=canonical_logs(), block=st.sampled_from([1, 7, events._BLOCK_LINES]))
def test_near_canonical_lines_match_the_per_line_reference(text, block):
    with mock.patch.object(events, "_BLOCK_LINES", block):
        assert_matches_reference(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.text(min_size=1, max_size=4),
                          st.text(min_size=1, max_size=4), st.integers(0, MAX_TS),
                          st.text(max_size=4)), min_size=1, max_size=8))
def test_written_lines_are_canonical_exactly_when_their_strings_need_no_escape(drawn):
    # A post's event_id is its item_id.
    drawn = [(k, item, item if k == 0 else event, ts, account)
             for k, item, event, ts, account in drawn]
    batch = EventBatch(np.array([row[0] for row in drawn], dtype=np.int8),
                       [row[1] for row in drawn], [row[2] for row in drawn],
                       np.array([row[3] for row in drawn], dtype=np.int64),
                       [row[4] for row in drawn])
    for line, row in zip(serialized(batch).splitlines(keepends=True), drawn):
        plain = all(encode_basestring_ascii(s) == f'"{s}"' for s in (row[1], row[2], row[4]))
        assert bool(events._CANONICAL.fullmatch(line + "\x00")) == plain
        for decode in (events._decode_lines, events._decode_block):
            columns, numbers, errors = decode([line], 1)
            assert (columns, list(numbers), errors) == (tuple([value] for value in row), [1], [])
