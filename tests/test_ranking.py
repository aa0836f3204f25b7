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
    """(ids, states) of one policy at one minute, via the per-minute pass."""
    ranked = list(rank_minutes(table, space, index_table, (policy,), [t], horizon))
    if not ranked:
        return None
    [r] = ranked
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
    [r] = rank_minutes(table, space, make_table(), ("index", "novelty", "popularity"), [2], 60)
    # One call classifies the whole active set, shared by every policy.
    assert len(calls) == 1
    assert calls[0][0].tolist() == [2, 2, 1]   # ages of a, b, c
    assert r.minute == 2
    assert [table.ids[row] for row in r.rows] == ["a", "b", "c"]
    assert r.states.tolist() == [6, 5, 2]
    assert [sorted(order.tolist()) for order in r.orders] == [[0, 1, 2]] * 3


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
    empty = np.array([], dtype=np.int64)
    assert rank_items("novelty", empty, empty, empty, None).size == 0


def test_active_set_window_boundaries():
    table = build_timelines(parse_event_log([line("post", f"t{k}", f"t{k}", 60 * k)
                                             for k in range(5)]))

    def active(t, horizon):
        return {r.minute: [table.ids[row] for row in r.rows] for r in
                rank_minutes(table, make_space(), None, (), [t], horizon)}.get(t, [])

    # Age must satisfy 0 < t - post <= horizon.
    assert active(3, horizon=2) == ["t1", "t2"]
    assert active(0, horizon=60) == []
    assert active(64, horizon=60) == ["t4"]
    assert active(65, horizon=60) == []
    with pytest.raises(ConfigError):
        active(3, horizon=0)


def test_unknown_policy_and_missing_table():
    empty = np.array([], dtype=np.int64)
    with pytest.raises(ConfigError):
        rank_items("chronological", empty, empty, empty, make_table())
    with pytest.raises(ConfigError):
        rank_items("index", empty, empty, empty, None)


def test_snapshot_csv_layout(tmp_path):
    table = corpus()
    space = make_space()
    out = tmp_path / "snaps.csv"
    write_snapshots_csv(table, ("index",),
                        rank_minutes(table, space, make_table(), ("index",), [2], 60), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "minute,policy,rank,item_id,state_index"
    assert lines[1] == "2,index,1,c,2"
    assert len(lines) == 4
