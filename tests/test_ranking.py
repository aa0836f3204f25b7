import math

import numpy as np
import pytest

from feedrank.errors import ConfigError
from feedrank.events import build_timelines, parse_event_log
from feedrank.indices import IndexTable
from feedrank import ranking
from feedrank.ranking import rank_items, rank_minutes, write_snapshots_csv
from feedrank.states import BinSpec, build_state_space
from eventlog import line


def make_space():
    bins = BinSpec((1, 2, 3), (0.0, 1.0, 3.0, math.inf))
    return build_state_space(bins, (1.0, 0.5), (0.1, 0.5, 1.0))


def make_table():
    return IndexTable(g=np.array([0.0, 0.1, 0.7, 0.2, 0.3, 0.4, 0.6]))


def corpus():
    events = [
        line("post", "a", "a", 0),
        line("post", "b", "b", 30),
        line("post", "c", "c", 65),
    ]
    events += [line("retweet", "a", f"a-r{k}", 70 + k) for k in range(5)]
    events += [line("retweet", "b", "b-r0", 40)]
    events += [line("retweet", "c", f"c-r{k}", 66 + k) for k in range(2)]
    return build_timelines(parse_event_log(events))


def rank_at(t, table, space, index_table, policy, horizon=60):
    """(ids, states) of one policy at one minute, from a one-minute batch."""
    r = rank_minutes(table, space, index_table, (policy,), [t], horizon)
    if not len(r.minutes):
        return None
    order = r.orders[0]
    return tuple(table.ids[row] for row in r.rows[order]), tuple(r.states[order].tolist())


def test_states_at_decision_minute():
    table = corpus()
    space = make_space()
    ids, snap_states = rank_at(2, table, space, make_table(), "novelty")
    # At t = 2: a is age 2 with 5 visible retweets, b age 2 with 1,
    # c age 1 with 2.
    assert dict(zip(ids, snap_states)) == {"a": 6, "b": 5, "c": 2}


def test_policy_orderings_differ():
    table = corpus()
    space = make_space()
    index_table = make_table()
    assert rank_at(2, table, space, index_table, "index")[0] == ("c", "a", "b")
    assert rank_at(2, table, space, index_table, "novelty")[0] == ("c", "b", "a")
    assert rank_at(2, table, space, None, "popularity")[0] == ("a", "c", "b")


def test_policies_share_one_classification_per_item(monkeypatch):
    table = corpus()
    space = make_space()
    calls = []
    monkeypatch.setattr(ranking, "classify",
                        lambda *args, _orig=ranking.classify: calls.append(args) or _orig(*args))
    r = rank_minutes(table, space, make_table(), ("index", "novelty", "popularity"),
                     [0, 2, 3], 60)
    # One call classifies every entry of every minute, shared by every policy.
    assert len(calls) == 1
    assert calls[0][0].tolist() == [2, 2, 1, 3, 3, 2]   # ages of a, b, c at 2 and at 3
    assert r.minutes.tolist() == [2, 3]                  # minute 0 has no active item
    assert r.which.tolist() == [0, 0, 0, 1, 1, 1]
    assert [table.ids[row] for row in r.rows] == ["a", "b", "c"] * 2
    assert r.states.tolist() == [6, 5, 2, 0, 0, 5]
    for order in r.orders:
        # Each order permutes the entries within their own minute.
        assert sorted(order[:3].tolist()) == [0, 1, 2]
        assert sorted(order[3:].tolist()) == [3, 4, 5]


def test_index_ties_break_by_recency_then_id():
    table = build_timelines(parse_event_log([
        line("post", "x", "x", 10),
        line("post", "y", "y", 40),   # same minute, later second
        line("post", "z", "z", 40),   # identical timestamp: id decides
    ]))
    space = make_space()
    index_table = IndexTable(g=np.full(7, 0.5))
    assert rank_at(1, table, space, index_table, "index")[0] == ("y", "z", "x")


def test_empty_minute_gives_empty_snapshot():
    assert rank_at(50, corpus(), make_space(), make_table(), "novelty",
                   horizon=5) is None
    for minutes in ([], [0, 50, 51]):
        r = rank_minutes(corpus(), make_space(), make_table(), ranking.POLICIES, minutes, 5)
        assert r.minutes.size == r.which.size == r.rows.size == r.states.size == 0
        assert [order.size for order in r.orders] == [0, 0, 0]
    empty = np.array([], dtype=np.int64)
    assert rank_items("novelty", empty, empty, empty, empty, None).size == 0


def test_active_set_window_boundaries():
    table = build_timelines(parse_event_log([line("post", f"t{k}", f"t{k}", 60 * k)
                                             for k in range(5)]))

    def active(t, horizon):
        return [table.ids[row] for row in
                rank_minutes(table, make_space(), None, (), [t], horizon).rows]

    # Age must satisfy 0 < t - post <= horizon.
    assert active(3, horizon=2) == ["t1", "t2"]
    assert active(0, horizon=60) == []
    assert active(64, horizon=60) == ["t4"]
    assert active(65, horizon=60) == []
    # One batch over many minutes holds each minute's active set in turn.
    for horizon in (1, 2, 60):
        r = rank_minutes(table, make_space(), None, (), range(-1, 70), horizon)
        batch = {t: [table.ids[row] for row in r.rows[r.which == i]]
                 for i, t in enumerate(r.minutes.tolist())}
        assert batch == {t: active(t, horizon) for t in range(-1, 70) if active(t, horizon)}


def test_unknown_policy_and_missing_table():
    empty = np.array([], dtype=np.int64)
    with pytest.raises(ConfigError):
        rank_items("chronological", empty, empty, empty, empty, make_table())
    with pytest.raises(ConfigError):
        rank_items("index", empty, empty, empty, empty, None)


def test_snapshot_csv_layout(tmp_path):
    table = corpus()
    space = make_space()
    policies = ("index", "novelty")
    rankings = rank_minutes(table, space, make_table(), policies, [2, 3], 60)
    out = tmp_path / "snaps.csv"
    write_snapshots_csv(table, policies, rankings, out)
    # Minute by minute, then policy by policy, best first. At minute 3
    # a and b are out of the novelty window (state 0) and tie on the
    # index, so the more recent b comes first.
    assert out.read_text().splitlines() == [
        "minute,policy,rank,item_id,state_index",
        "2,index,1,c,2", "2,index,2,a,6", "2,index,3,b,5",
        "2,novelty,1,c,2", "2,novelty,2,b,5", "2,novelty,3,a,6",
        "3,index,1,c,5", "3,index,2,b,0", "3,index,3,a,0",
        "3,novelty,1,c,5", "3,novelty,2,b,0", "3,novelty,3,a,0",
    ]
