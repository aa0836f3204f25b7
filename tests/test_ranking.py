import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedrank import evaluation
from feedrank.config import RunConfig
from feedrank.errors import ConfigError
from feedrank.evaluation import rank_window
from feedrank.events import build_timelines, parse_event_log
from feedrank.indices import IndexTable
from feedrank.ranking import POLICIES, rank_items, write_snapshots_csv
from feedrank.states import BinSpec
from eventlog import line


def make_bins():
    return BinSpec((1, 2, 3), (0.0, 1.0, 3.0, math.inf))


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


def rank_at(t, table, bins, index_table, policy, horizon=60):
    """(ids, states) of one policy at one minute, from a one-minute window."""
    cfg = RunConfig(eval_window=(t, t + 1), horizon=horizon, policies=(policy,))
    r = rank_window(table, bins, index_table, cfg)[0]
    if not len(r.minutes):
        return None
    order = r.orders[0]
    return tuple(table.ids[row] for row in r.rows[order]), tuple(r.states[order].tolist())


def test_states_at_decision_minute():
    table = corpus()
    bins = make_bins()
    ids, snap_states = rank_at(2, table, bins, make_table(), "novelty")
    # At t = 2: a is age 2 with 5 visible retweets, b age 2 with 1,
    # c age 1 with 2.
    assert dict(zip(ids, snap_states)) == {"a": 6, "b": 5, "c": 2}


def test_policy_orderings_differ():
    table = corpus()
    bins = make_bins()
    index_table = make_table()
    assert rank_at(2, table, bins, index_table, "index")[0] == ("c", "a", "b")
    assert rank_at(2, table, bins, index_table, "novelty")[0] == ("c", "b", "a")
    assert rank_at(2, table, bins, None, "popularity")[0] == ("a", "c", "b")


def test_policies_share_one_classification_per_item(monkeypatch):
    table = corpus()
    bins = make_bins()
    calls = []
    classify = evaluation.classify
    monkeypatch.setattr(evaluation, "classify",
                        lambda *args: calls.append(args) or classify(*args))
    r, counts, _ = rank_window(table, bins, make_table(), RunConfig(eval_window=(0, 4)))
    # One call classifies every entry of every minute, shared by every policy.
    assert len(calls) == 1
    # Ages of a and b at 1; of a, b and c at 2 and at 3.
    assert calls[0][0].tolist() == [1, 1, 2, 2, 1, 3, 3, 2]
    assert r.minutes.tolist() == [1, 2, 3]               # minute 0 has no active item
    assert r.which.tolist() == [0, 0, 1, 1, 1, 2, 2, 2]
    assert [table.ids[row] for row in r.rows] == ["a", "b"] + ["a", "b", "c"] * 2
    assert r.states.tolist() == [1, 2, 6, 5, 2, 0, 0, 5]
    # Retweets before each minute, and during it: a's five and c's two fall
    # in minute 1 (c is not yet active then), b's one in minute 0.
    assert counts[0].tolist() == [0, 1, 5, 1, 2, 5, 1, 2]
    assert counts[1].tolist() == [5, 0, 0, 0, 0, 0, 0, 0]
    for order in r.orders:
        # Each order permutes the entries within their own minute.
        assert sorted(order[:2].tolist()) == [0, 1]
        assert sorted(order[2:5].tolist()) == [2, 3, 4]
        assert sorted(order[5:].tolist()) == [5, 6, 7]


def test_index_ties_break_by_recency_then_id():
    table = build_timelines(parse_event_log([
        line("post", "x", "x", 10),
        line("post", "y", "y", 40),   # same minute, later second
        line("post", "z", "z", 40),   # identical timestamp: id decides
    ]))
    bins = make_bins()
    index_table = IndexTable(g=np.full(7, 0.5))
    assert rank_at(1, table, bins, index_table, "index")[0] == ("y", "z", "x")


def test_empty_minute_gives_empty_snapshot():
    assert rank_at(50, corpus(), make_bins(), make_table(), "novelty",
                   horizon=5) is None
    # Windows before every post, after every active range, and with no
    # minute in the hour set while items are active.
    for window, hours in (((-90, 0), None), ((50, 52), None), ((0, 60), (3,))):
        r, counts, n_decision = rank_window(corpus(), make_bins(), make_table(),
                                            RunConfig(eval_window=window, horizon=5,
                                                      peak_hours=hours))
        assert r.minutes.size == r.which.size == r.rows.size == r.states.size == 0
        assert [order.size for order in r.orders] == [0, 0, 0]
        assert counts.shape == (4, 0)
        assert n_decision == (0 if hours else window[1] - window[0])
    empty = np.array([], dtype=np.int64)
    assert rank_items("novelty", empty, empty, empty, empty, None).size == 0


def test_active_set_window_boundaries():
    table = build_timelines(parse_event_log([line("post", f"t{k}", f"t{k}", 60 * k)
                                             for k in range(5)]))

    def batch(window, horizon, interval=1):
        cfg = RunConfig(eval_window=window, horizon=horizon, decision_interval=interval,
                        policies=("novelty",))
        return rank_window(table, make_bins(), None, cfg)[0]

    def active(t, horizon):
        return [table.ids[row] for row in batch((t, t + 1), horizon).rows]

    # Age must satisfy 0 < t - post <= horizon.
    assert active(3, horizon=2) == ["t1", "t2"]
    assert active(0, horizon=60) == []
    assert active(64, horizon=60) == ["t4"]
    assert active(65, horizon=60) == []
    # One window of many minutes holds each minute's active set in turn.
    for horizon in (1, 2, 60):
        for interval in (1, 3):
            r = batch((-1, 70), horizon, interval)
            by_minute = {t: [table.ids[row] for row in r.rows[r.which == i]]
                         for i, t in enumerate(r.minutes.tolist())}
            assert by_minute == {t: active(t, horizon) for t in range(-1, 70, interval)
                                 if active(t, horizon)}
    # The config refuses what no window could rank, before any ranking.
    for bad in ({"horizon": 0}, {"decision_interval": 0}, {"eval_window": (5, 5)},
                {"peak_hours": ()}, {"peak_hours": (3, 24)}):
        with pytest.raises(ConfigError):
            RunConfig(**{"eval_window": (0, 10), "horizon": 60, **bad})


def test_unknown_policy_and_missing_table():
    empty = np.array([], dtype=np.int64)
    with pytest.raises(ConfigError):
        rank_items("chronological", empty, empty, empty, empty, make_table())
    with pytest.raises(ConfigError):
        rank_items("index", empty, empty, empty, empty, None)


def test_snapshot_csv_layout(tmp_path):
    table = corpus()
    bins = make_bins()
    policies = ("index", "novelty")
    rankings = rank_window(table, bins, make_table(),
                           RunConfig(eval_window=(2, 4), policies=policies))[0]
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


def snapshots_reference(table, policies, rankings):
    """The snapshot file's bytes, written row by row through ``csv.writer``."""
    r, out = rankings, io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["minute", "policy", "rank", "item_id", "state_index"])
    for k, minute in enumerate(r.minutes.tolist()):
        for policy, order in zip(policies, r.orders):
            ranked = order[r.which == k]
            writer.writerows([minute, policy, rank, table.ids[r.rows[e]], r.states[e]]
                             for rank, e in enumerate(ranked.tolist(), start=1))
    return out.getvalue().encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(posts=st.dictionaries(
    st.text(st.sampled_from(',"\r\n a') | st.characters(blacklist_categories=("Cs",)),
            min_size=1, max_size=6),
    st.integers(0, 5), min_size=1, max_size=8))
def test_snapshot_ids_are_quoted_as_csv_writer_quotes_them(posts, tmp_path_factory):
    table = build_timelines(parse_event_log(
        [line("post", iid, iid, minute * 60) for iid, minute in posts.items()]))
    rankings = rank_window(table, make_bins(), make_table(),
                           RunConfig(eval_window=(0, 8), horizon=3))[0]
    out = tmp_path_factory.mktemp("snaps") / "snaps.csv"
    write_snapshots_csv(table, POLICIES, rankings, out)
    assert out.read_bytes() == snapshots_reference(table, POLICIES, rankings)
