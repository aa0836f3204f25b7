import json

import pytest

from feedrank.errors import DataError, EventLogError
from feedrank.events import (
    Event, build_timelines, parse_event_log, serialize_event_log,
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


def test_build_timelines_counts_and_popularity():
    events = parse_event_log("\n".join([
        make_line("post", "t1", "t1", 600),         # minute 10
        make_line("retweet", "t1", "t1-r1", 660),   # minute 11
        make_line("retweet", "t1", "t1-r2", 690),   # minute 11
        make_line("reply", "t1", "t1-p1", 660),
        make_line("retweet", "t1", "t1-r3", 780),   # minute 13
        make_line("post", "t2", "t2", 615),
    ]))
    timelines = build_timelines(events)
    assert sorted(timelines) == ["t1", "t2"]
    tl = timelines["t1"]
    assert tl.post_minute == 10
    assert tl.counts_in_minute(11) == (2, 1, 0)
    assert tl.counts_in_minute(12) == (0, 0, 0)
    # Retweets in minute 11 count toward [11, 12): visible from minute 12 on.
    assert tl.retweets_before(11) == 0
    assert tl.retweets_before(12) == 2
    assert tl.retweets_before(13) == 2
    assert tl.retweets_before(14) == 3
    assert tl.final_retweet_count == 3
    assert timelines["t2"].final_retweet_count == 0


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
    tl = build_timelines(events)["t1"]
    assert tl.counts_in_minute(10) == (1, 0, 0)


def test_serialize_is_compact_single_lines():
    events = [Event("post", "t1", "t1", 0, "acct")]
    text = serialize_event_log(events)
    assert text == ('{"kind":"post","item_id":"t1","event_id":"t1",'
                    '"ts":0,"account":"acct"}\n')
    assert serialize_event_log([]) == ""
