import json

import numpy as np
import pytest

from feedrank.errors import DataError, EventLogError
from feedrank.events import (
    MAX_TS, Event, build_timelines, parse_event_log, serialize_event_log,
)


def make_line(kind, item_id, event_id, ts, account="a"):
    return json.dumps({"kind": kind, "item_id": item_id,
                       "event_id": event_id, "ts": ts, "account": account})


def test_minute_is_floor_of_seconds():
    assert Event("post", "x", "x", 0).minute == 0
    assert Event("post", "x", "x", 59).minute == 0
    assert Event("post", "x", "x", 60).minute == 1
    assert Event("post", "x", "x", 119).minute == 1


def test_parse_round_trip_and_order():
    text = "\n".join([
        make_line("post", "t1", "t1", 60),
        "# a comment",
        "",
        make_line("retweet", "t1", "t1-r1", 130),
        make_line("favorite", "t1", "t1-f1", 140),
    ]) + "\n"
    events = parse_event_log(text)
    assert [e.kind for e in events] == ["post", "retweet", "favorite"]
    assert serialize_event_log(events) == serialize_event_log(parse_event_log(
        serialize_event_log(events)))


def test_parse_accepts_bytes_and_iterables():
    line = make_line("post", "t1", "t1", 0)
    assert parse_event_log(line.encode()) == parse_event_log([line])


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
    assert parse_event_log(make_line("post", "a", "a", MAX_TS))[0].ts == MAX_TS
    for ts in (MAX_TS + 1, 10 ** 23):
        with pytest.raises(EventLogError) as exc_info:
            parse_event_log("\n".join([make_line("post", "b", "b", 0),
                                       make_line("post", "a", "a", ts)]))
        assert [n for n, _ in exc_info.value.line_errors] == [2]
    # The largest minute still fits the table's keys.
    table = build_timelines([Event("post", "a", "a", MAX_TS),
                             Event("retweet", "a", "a-r", MAX_TS)])
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
    events = [
        Event("post", "t1", "t1", 0),
        Event("retweet", "ghost", "g-r1", 60),
        Event("reply", "ghost2", "g2-p1", 60),
    ]
    with pytest.raises(DataError) as exc_info:
        build_timelines(events)
    assert "ghost" in str(exc_info.value)
    assert "ghost2" in str(exc_info.value)


def test_build_timelines_rejects_engagement_before_post():
    events = [
        Event("post", "t1", "t1", 600),
        Event("retweet", "t1", "t1-r1", 540),
    ]
    with pytest.raises(DataError):
        build_timelines(events)


def test_engagement_in_post_minute_is_allowed():
    events = [
        Event("post", "t1", "t1", 605),
        Event("retweet", "t1", "t1-r1", 601),  # same minute, earlier second
    ]
    table = build_timelines(events)
    assert table.count("retweet", [0], 10, 11).tolist() == [1]


def test_serialize_is_compact_single_lines():
    events = [Event("post", "t1", "t1", 0, "acct")]
    text = serialize_event_log(events)
    assert text == ('{"kind":"post","item_id":"t1","event_id":"t1",'
                    '"ts":0,"account":"acct"}\n')
    assert serialize_event_log([]) == ""


def test_take_keeps_the_masked_rows_and_their_events():
    table = build_timelines([
        Event("post", "a", "a", 0), Event("post", "b", "b", 60), Event("post", "c", "c", 120),
        Event("retweet", "a", "a-r", 60), Event("reply", "b", "b-p", 120),
        Event("retweet", "c", "c-r1", 180), Event("retweet", "c", "c-r2", 240),
    ])
    sub = table.take([True, False, True])
    assert sub.ids == ("a", "c")
    assert sub.post_ts.tolist() == [0, 120]
    assert sub.count("retweet", [0, 1], 0, sub.stride).tolist() == [1, 2]
    assert sub.count("reply", [0, 1], 0, sub.stride).tolist() == [0, 0]
    rows, minutes = sub.events("retweet")
    assert rows.tolist() == [0, 1, 1] and minutes.tolist() == [1, 3, 4]
