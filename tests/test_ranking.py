import math

import numpy as np
import pytest

from feedrank.errors import ConfigError
from feedrank.events import Event, build_timelines
from feedrank.indices import IndexTable
from feedrank.ranking import rank_items, rank_minutes, write_snapshots_csv
from feedrank import states
from feedrank.states import BinSpec, build_state_space


def make_space():
    bins = BinSpec((1, 2, 3), (0.0, 1.0, 3.0, math.inf))
    return build_state_space(bins, (1.0, 0.5), (0.1, 0.5, 1.0))


def make_table():
    g = np.array([0.0, 0.1, 0.7, 0.2, 0.3, 0.4, 0.6])
    order = np.argsort(-g, kind="stable")
    y = np.diff(np.concatenate(([0.0], g[order])))
    return IndexTable(g=g, pi_order=order, y_values=y)


def corpus():
    events = [
        Event("post", "a", "a", 0),
        Event("post", "b", "b", 30),
        Event("post", "c", "c", 65),
    ]
    events += [Event("retweet", "a", f"a-r{k}", 70 + k) for k in range(5)]
    events += [Event("retweet", "b", "b-r0", 40)]
    events += [Event("retweet", "c", f"c-r{k}", 66 + k) for k in range(2)]
    return build_timelines(events)


def rank_at(t, timelines, space, table, policy, horizon=60):
    """The snapshot of one policy at one minute, via the per-minute pass."""
    ranked = list(rank_minutes(timelines, space, table, (policy,), [t], horizon))
    return ranked[0][2][0] if ranked else None


def test_states_at_decision_minute():
    timelines = corpus()
    space = make_space()
    snap = rank_at(2, timelines, space, make_table(), "novelty")
    by_id = dict(zip(snap.item_ids, snap.state_indices))
    # At t = 2: a is age 2 with 5 visible retweets, b age 2 with 1,
    # c age 1 with 2.
    assert by_id == {"a": 6, "b": 5, "c": 2}


def test_policy_orderings_differ():
    timelines = corpus()
    space = make_space()
    table = make_table()
    assert rank_at(2, timelines, space, table, "index").item_ids == ("c", "a", "b")
    assert rank_at(2, timelines, space, table, "novelty").item_ids == ("c", "b", "a")
    assert rank_at(2, timelines, space, None, "popularity").item_ids == ("a", "c", "b")


def test_policies_share_one_classification_per_item(monkeypatch):
    timelines = corpus()
    space = make_space()
    calls = []
    monkeypatch.setattr(states, "classify",
                        lambda *args, _orig=states.classify: calls.append(args) or _orig(*args))
    [(t, ids, snaps)] = rank_minutes(timelines, space, make_table(),
                                     ("index", "novelty", "popularity"), [2], 60)
    assert len(calls) == 3   # one per active item, not one per item and policy
    assert (t, ids) == (2, ["a", "b", "c"])
    assert [s.policy for s in snaps] == ["index", "novelty", "popularity"]
    by_policy = [dict(zip(s.item_ids, s.state_indices)) for s in snaps]
    assert by_policy[0] == by_policy[1] == by_policy[2] == {"a": 6, "b": 5, "c": 2}


def test_index_ties_break_by_recency_then_id():
    timelines = build_timelines([
        Event("post", "x", "x", 10),
        Event("post", "y", "y", 40),   # same minute, later second
        Event("post", "z", "z", 40),   # identical timestamp: id decides
    ])
    space = make_space()
    table = IndexTable(g=np.full(7, 0.5), pi_order=np.arange(7),
                       y_values=np.array([0.5] + [0.0] * 6))
    snap = rank_at(1, timelines, space, table, "index")
    assert snap.item_ids == ("y", "z", "x")


def test_empty_minute_gives_empty_snapshot():
    assert rank_at(50, corpus(), make_space(), make_table(), "novelty",
                   horizon=5) is None
    snap = rank_items(50, [], "novelty", None)
    assert len(snap) == 0


def test_active_set_window_boundaries():
    timelines = build_timelines([Event("post", f"t{k}", f"t{k}", 60 * k)
                                 for k in range(5)])

    def active(t, horizon):
        return {m: ids for m, ids, _ in
                rank_minutes(timelines, make_space(), None, (), [t], horizon)}.get(t, [])

    # Age must satisfy 0 < t - post <= horizon.
    assert active(3, horizon=2) == ["t1", "t2"]
    assert active(0, horizon=60) == []
    assert active(64, horizon=60) == ["t4"]
    assert active(65, horizon=60) == []
    with pytest.raises(ConfigError):
        active(3, horizon=0)


def test_unknown_policy_and_missing_table():
    with pytest.raises(ConfigError):
        rank_items(2, [], "chronological", make_table())
    with pytest.raises(ConfigError):
        rank_items(2, [], "index", None)


def test_snapshot_csv_layout(tmp_path):
    timelines = corpus()
    space = make_space()
    out = tmp_path / "snaps.csv"
    write_snapshots_csv(rank_minutes(timelines, space, make_table(), ("index",), [2], 60),
                        out)
    lines = out.read_text().splitlines()
    assert lines[0] == "minute,policy,rank,item_id,state_index"
    assert lines[1] == "2,index,1,c,2"
    assert len(lines) == 4
