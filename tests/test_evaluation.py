import math

import csv
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from feedrank.config import MAX_RELEVANCE_CAP, RunConfig
from feedrank.errors import ConfigError, DataError
from feedrank.events import ItemTable, build_timelines, hour_of_minute, parse_event_log
from feedrank.evaluation import (
    attention_relevance, evaluate_run, mean_std, ndcg, pearson, rank_window,
    utility_relevance, write_header_text, write_series_csv, write_summary_csv,
)
from feedrank.indices import IndexTable
from feedrank.ranking import POLICIES, write_snapshots_csv
from feedrank.states import BinSpec, StateSpace
from eventlog import line
from oracles import evaluate_reference, ndcg_bruteforce, pearson_bruteforce


def make_space():
    bins = BinSpec((1, 2, 3), (0.0, 1.0, math.inf))
    return StateSpace(bins, (1.0, 0.5), (0.2, 1.0))


def make_table(space):
    return IndexTable(g=np.linspace(1.0, 0.1, space.bins.n_states))


def config(window, policies=("novelty",), signals=("rt",), **fields):
    """The RunConfig of an evaluation over ``window``."""
    return RunConfig(eval_window=window, policies=policies, signals=signals, **fields)


def ndcg_of(relevance):
    """nDCG of relevance scores listed in rank order."""
    return ndcg([2.0 ** s - 1.0 for s in relevance])


def test_ndcg_perfect_ordering_is_one():
    assert ndcg_of([3.0, 2.0, 0.0]) == pytest.approx(1.0)


def test_ndcg_two_item_swap():
    got = ndcg_of([0.0, 1.0])
    assert abs(got - 1.0 / math.log2(3.0)) < 1e-12


def test_ndcg_all_zero_scores_one():
    assert ndcg_of([0.0, 0.0]) == 1.0
    assert ndcg([]) == 1.0


def test_ndcg_equal_relevance_any_permutation_is_one():
    for n in range(1, 13):
        assert ndcg_of([2.0] * n) == 1.0


def test_ndcg_negative_relevance_rejected():
    with pytest.raises(DataError):
        ndcg_of([-0.5])


def test_ndcg_matches_bruteforce_on_small_lists():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        rel = [float(rng.integers(0, 5)) for _ in range(n)]
        expected = ndcg_bruteforce(rel)
        assert ndcg_of(rel) == pytest.approx(expected, abs=1e-12)


def test_ndcg_sums_like_the_scalar_loop():
    # The series are written with 17 digits, so the array sum must add
    # in the same order as the Python loop it replaced: bit for bit.
    def scalar_ndcg(gains):
        dcg = sum(g / math.log2(pos + 1) for pos, g in enumerate(gains, start=1))
        ideal = sum(g / math.log2(pos + 1)
                    for pos, g in enumerate(sorted(gains, reverse=True), start=1))
        return 1.0 if ideal == 0.0 else dcg / ideal

    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 17, 64, 65, 400):
        gains = [2.0 ** float(s) - 1.0 for s in rng.integers(0, 31, size=n)]
        assert ndcg(gains) == scalar_ndcg(gains)


def test_pearson_matches_bruteforce():
    rng = np.random.default_rng(15)
    x = list(rng.normal(size=50))
    y = list(0.3 * np.asarray(x) + rng.normal(size=50))
    assert pearson(x, y) == pytest.approx(pearson_bruteforce(x, y), abs=1e-12)
    assert math.isnan(pearson([1.0], [2.0]))
    assert math.isnan(pearson([1.0, 1.0], [2.0, 3.0]))
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0])


def _left_to_right(values):
    acc = 0
    for v in values:
        acc = acc + v
    return acc


def loop_mean_std(values):
    n = len(values)
    mean = _left_to_right(values) / n
    return mean, math.sqrt(_left_to_right((v - mean) ** 2 for v in values) / n)


def loop_pearson(x, y):
    n = len(x)
    mx, my = _left_to_right(x) / n, _left_to_right(y) / n
    sxx = _left_to_right((a - mx) ** 2 for a in x)
    syy = _left_to_right((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return math.nan
    return _left_to_right((a - mx) * (b - my) for a, b in zip(x, y)) / math.sqrt(sxx * syy)


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 40))
    # No magnitude below 1e-30, so no product of squares underflows to 0.
    values = (st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-30)
              | st.sampled_from([0.0, -0.0, 1e-16, 1.0]))
    return tuple(draw(st.lists(values, min_size=n, max_size=n)) for _ in range(2))


# Added left to right, the first series sums to exactly 1.0; pairwise (np.sum)
# or compensated (Python 3.12's sum) addition does not. In the second,
# ``x * x`` and Python's ``x ** 2`` differ in the last bit. The third sums
# to +0.0, as ``sum`` starts from 0.
@example(([1.0] + [1e-16] * 10, [float(k) for k in range(11)]))
@example(([0.3493787908695549, -0.3493787908695549, 0.0], [1.0, 2.0, 4.0]))
@example(([-0.0, -0.0], [1.0, 2.0]))
@settings(max_examples=300, deadline=None)
@given(pair=series_pairs())
def test_statistics_add_left_to_right(pair):
    x, y = pair
    both = np.array(pair)
    means, stds = mean_std(both)
    for row, mean, std in zip(pair, means.tolist(), stds.tolist()):
        assert (mean.hex(), std.hex()) == tuple(v.hex() for v in loop_mean_std(row))
    expected = loop_pearson(x, y).hex()
    assert float(pearson(x, y)).hex() == expected
    assert float(pearson(both, y)[0]).hex() == expected  # broadcast over a batch
    assert float(pearson(both, y)[1]).hex() == loop_pearson(y, y).hex()


def test_attention_relevance_slots_and_cap():
    events = [line("post", "a", "a", 0)]
    events += [line("retweet", "a", f"a-r{k}", 65) for k in range(40)]
    events += [line("reply", "a", f"a-p{k}", 65) for k in range(3)]
    events += [line("favorite", "a", f"a-f{k}", 65) for k in range(2)]
    table = build_timelines(parse_event_log(events))
    # Entries of item a at minutes 1 and 2: all engagement falls in minute 1.
    _, counts, _ = rank_window(table, make_space().bins, None, config((1, 3)))
    assert attention_relevance(counts, "rt").tolist() == [30, 0]
    assert attention_relevance(counts, "rt", cap=100).tolist() == [40, 0]
    assert attention_relevance(counts, "rt_replies", cap=100).tolist() == [43, 0]
    assert attention_relevance(counts, "rt_replies_favs", cap=100).tolist() == [45, 0]
    with pytest.raises(ConfigError):
        attention_relevance(counts, "views")
    with pytest.raises(ConfigError):
        attention_relevance(counts, "rt", cap=0)


def test_utility_relevance_uses_next_minute_state():
    bins = make_space().bins
    events = [line("post", "a", "a", 0),
              line("retweet", "a", "a-r0", 70)]
    table = build_timelines(parse_event_log(events))
    r, counts, _ = rank_window(table, bins, None, config((1, 3)))
    # At t = 1 the item is age 1 / 0 visible retweets; at t + 1 = 2 it is
    # age 2 with 1 visible retweet, i.e. state (2,2) = 4. At t = 2 the
    # next-minute state is out of window (age 3): reward 0.
    assert utility_relevance(r, counts, table, bins).tolist() == [4, 0]


def test_every_count_is_taken_once(monkeypatch):
    calls = []
    monkeypatch.setattr(ItemTable, "count", lambda self, *args, _orig=ItemTable.count:
                        calls.append(args[0]) or _orig(self, *args))
    space = make_space()
    evaluate_run(eval_corpus(), space, make_table(space),
                 config((700, 750), POLICIES, ("utility", "rt", "rt_replies", "rt_replies_favs")))
    # Retweets before the minute, and each engagement kind during it.
    assert calls == ["retweet", "retweet", "reply", "favorite"]


def test_hour_of_minute_wraps_days():
    assert hour_of_minute(0) == 0
    assert hour_of_minute(59) == 0
    assert hour_of_minute(60) == 1
    assert hour_of_minute(1440 + 125) == 2


def eval_corpus():
    events = []
    for k, minute in enumerate(range(690, 860, 10)):
        iid = f"t{k:02d}"
        events.append(line("post", iid, iid, minute * 60))
        events.extend(line("retweet", iid, f"{iid}-r{j}", (minute + 1) * 60)
                      for j in range(k % 4))
    return build_timelines(parse_event_log(events))


def test_evaluate_run_counts_and_series_shapes():
    timelines = eval_corpus()
    space = make_space()
    table = make_table(space)
    report = evaluate_run(timelines, space, table,
                          config((700, 750), POLICIES, ("utility", "rt")))
    assert report.minutes == list(range(700, 750))
    assert all(c > 0 for c in report.active_counts)
    assert report.scores.shape == (len(POLICIES), 2, len(report.minutes))
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in report.scores.ravel())
    mean, std = mean_std(report.scores)
    novelty_utility = (POLICIES.index("novelty"), 0)
    values = report.scores[novelty_utility]
    assert mean[novelty_utility] == pytest.approx(np.mean(values))
    assert std[novelty_utility] == pytest.approx(np.std(values))  # population std


def test_evaluate_run_skips_empty_minutes():
    timelines = eval_corpus()
    space = make_space()
    report = evaluate_run(timelines, space, None, config((600, 700)))
    # No item is active until minute 691.
    assert report.skipped_empty == 91
    assert report.minutes == list(range(691, 700))


def spread_corpus():
    """Posts over three days with gaps of hours between bursts, two in one minute."""
    minutes = [5, 7, 300, 300, 301, 900, 1439, 1500, 2000, 2003, 2950, 4000, 4300]
    return build_timelines(parse_event_log([line("post", f"s{k}", f"s{k}", m * 60)
                                            for k, m in enumerate(minutes)]))


@pytest.mark.parametrize("interval", [1, 7, 60])
@pytest.mark.parametrize("peak_hours", [None, (23, 0, 1, 5), (12,)])
def test_decision_minutes_match_a_scan_of_the_grid(interval, peak_hours):
    table = spread_corpus()
    space = make_space()
    posts = table.post_minute.tolist()
    for window, horizon in (((0, 4500), 60), ((3, 4400), 17), ((1000, 1100), 60),
                            ((2001, 2002), 1), ((4400, 9000), 60), ((-700, 10), 5)):
        grid = [t for t in range(*window, interval)
                if peak_hours is None or hour_of_minute(t) in peak_hours]
        active = [t for t in grid if any(p < t <= p + horizon for p in posts)]
        report = evaluate_run(table, space, None, config(window, decision_interval=interval,
                                                         peak_hours=peak_hours, horizon=horizon))
        assert report.minutes == active
        assert report.skipped_empty == len(grid) - len(active)


def test_window_with_no_active_entry(tmp_path):
    timelines = eval_corpus()
    space = make_space()
    # Items are active from minute 691 to 910 (11:31 to 15:10).
    report = evaluate_run(timelines, space, make_table(space),
                          config((600, 1000), POLICIES, ("utility", "rt"), decision_interval=7,
                                 peak_hours=(3, 16)))
    assert report.minutes == [] and report.active_counts.tolist() == []
    assert report.skipped_empty == len([t for t in range(600, 1000, 7)
                                        if hour_of_minute(t) in (3, 16)])
    assert report.rankings.orders.shape == (3, 0)
    assert report.scores.shape == (3, 2, 0)
    write_series_csv(report, tmp_path / "series.csv")
    write_summary_csv(report, tmp_path / "summary.csv")
    assert (tmp_path / "series.csv").read_text().splitlines() == [
        "minute,policy,signal,ndcg,active_count"]
    assert (tmp_path / "summary.csv").read_text().splitlines()[1] == "utility" + ",nan" * 6


def test_peak_hours_filter_is_subset_of_full_run():
    timelines = eval_corpus()
    space = make_space()
    table = make_table(space)
    full = evaluate_run(timelines, space, table, config((700, 850), ("index",), ("utility",)))
    peak = evaluate_run(timelines, space, table,
                        config((700, 850), ("index",), ("utility",), peak_hours=(12, 13)))
    assert peak.minutes == [t for t in full.minutes
                            if hour_of_minute(t) in (12, 13)]
    lookup = dict(zip(full.minutes, full.scores[0, 0].tolist()))
    for t, v in zip(peak.minutes, peak.scores[0, 0].tolist()):
        assert v == lookup[t]
    assert peak.fingerprint["peak_hours"] == "12,13"


def test_wrapping_peak_hours_accept_midnight():
    timelines = build_timelines(parse_event_log([line("post", "a", "a", 0),
                                                 line("post", "b", "b", 1430 * 60)]))
    space = make_space()
    report = evaluate_run(timelines, space, None, config((1380, 1500), peak_hours=(23, 0)))
    assert all(hour_of_minute(t) in (23, 0) for t in report.minutes)
    assert len(report.minutes) > 0


def test_decision_interval_strides():
    timelines = eval_corpus()
    space = make_space()
    report = evaluate_run(timelines, space, None, config((700, 750), decision_interval=10))
    assert report.minutes == [700, 710, 720, 730, 740]


def test_train_overlap_warning():
    timelines = eval_corpus()
    space = make_space()
    report = evaluate_run(timelines, space, None, config((700, 750), train_window=(600, 710)))
    assert len(report.warnings) == 1
    assert "overlaps" in report.warnings[0]
    clean = evaluate_run(timelines, space, None, config((700, 750), train_window=(600, 700)))
    assert clean.warnings == []


def test_saturated_minute_at_the_largest_cap_scores_finite():
    # Three items get at least 1,023 retweets in minute 1, where three gains
    # 2**1023 - 1 would overflow a DCG; d, the newest, gets none and ranks
    # first, so neither ordering is ideal.
    events = [line("post", k, k, ts) for k, ts in zip("abcd", (0, 1, 2, 30))]
    events += [line("retweet", k, f"{k}-r{j}", 60 + j % 60)
               for k, n in zip("abc", (1023, 1024, 1100)) for j in range(n)]
    table = build_timelines(parse_event_log(events))
    cfg = config((1, 2), ("novelty", "popularity"), ("rt",), relevance_cap=MAX_RELEVANCE_CAP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = evaluate_run(table, make_space(), None, cfg).scores
    assert scores.shape == (2, 1, 1)
    assert ((0 < scores) & (scores < 1)).all()


def test_evaluate_run_validation():
    timelines = eval_corpus()
    space = make_space()
    # Out-of-range values are refused when the config is built.
    for bad in ({"policies": ("chrono",)}, {"signals": ("likes",)}, {"window": (710, 700)},
                {"decision_interval": 0}, {"peak_hours": (25,)}, {"horizon": 0},
                {"policies": ()}, {"relevance_cap": 0}, {"relevance_cap": 999}):
        with pytest.raises(ConfigError):
            config(**{"window": (700, 710), **bad})
    with pytest.raises(ConfigError):
        evaluate_run(timelines, space, None, config((700, 710), ("index",)))
    with pytest.raises(ConfigError):
        evaluate_run(timelines, space, None, RunConfig())  # no eval window


def test_report_writers_round_trip(tmp_path):
    timelines = eval_corpus()
    space = make_space()
    table = make_table(space)
    report = evaluate_run(timelines, space, table,
                          config((700, 760), ("index", "novelty"), ("utility", "rt")))
    series_path = tmp_path / "series.csv"
    summary_path = tmp_path / "summary.csv"
    header_path = tmp_path / "header.txt"
    write_series_csv(report, series_path)
    write_summary_csv(report, summary_path)
    write_header_text(report, header_path, {"beta": "0.9"})

    series_lines = series_path.read_text().splitlines()
    assert series_lines[0] == "minute,policy,signal,ndcg,active_count"
    assert len(series_lines) == 1 + len(report.minutes) * 4

    summary_lines = summary_path.read_text().splitlines()
    assert summary_lines[0] == "signal,index_mean,index_std,novelty_mean,novelty_std"
    first = summary_lines[1].split(",")
    mean, std = mean_std(report.scores)
    # The 17-significant-digit format round-trips float64 exactly.
    assert float(first[1]) == mean[0, 0]  # index, utility
    assert float(first[2]) == std[0, 0]

    header = header_path.read_text()
    assert header.splitlines()[1] == "beta = 0.9"
    assert "pearson_active[index,utility] = " in header
    assert "minutes_evaluated = 60" in header


@st.composite
def evaluation_inputs(draw):
    """A small log with tied post times, its bins, and an evaluation to run on it."""
    n_items = draw(st.integers(1, 10))
    # Few distinct post times, so several items share a minute or a ts.
    post_ts = draw(st.lists(st.sampled_from([0, 30, 60, 61, 600, 630, 1800, 3600, 3630]),
                            min_size=n_items, max_size=n_items))
    posts = {f"i{k}": ts + 60 * draw(st.integers(0, 40)) for k, ts in enumerate(post_ts)}
    engagement = [(kind, iid, posts[iid] // 60 + offset) for kind, iid, offset in draw(
        st.lists(st.tuples(st.sampled_from(["retweet", "reply", "favorite"]),
                           st.sampled_from(sorted(posts)), st.integers(0, 90)), max_size=60))]
    novelty = sorted(set(draw(st.lists(st.integers(1, 100), min_size=2, max_size=5))))
    if len(novelty) < 2:
        novelty.append(novelty[0] + 1)
    popularity = [0, *sorted(draw(st.lists(st.integers(0, 6), max_size=3))), math.inf]
    space = StateSpace(BinSpec(tuple(novelty), tuple(popularity)),
                              draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]),
                                            min_size=len(novelty) - 1, max_size=len(novelty) - 1)),
                              draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                            min_size=len(popularity) - 1,
                                            max_size=len(popularity) - 1)))
    g = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      min_size=space.bins.n_states, max_size=space.bins.n_states))
    policies = draw(st.permutations(POLICIES).map(tuple))[:draw(st.integers(1, 3))]
    signals = draw(st.permutations(("utility", "rt", "rt_replies", "rt_replies_favs"))
                   .map(tuple))[:draw(st.integers(1, 4))]
    # Windows may start before every post or after every active entry.
    start = draw(st.integers(-150, 400))
    run = dict(window=(start, start + draw(st.integers(1, 300))),
               horizon=draw(st.integers(1, 90)), interval=draw(st.integers(1, 7)),
               peak_hours=draw(st.none() | st.sets(st.integers(0, 6), min_size=1).map(tuple)),
               cap=draw(st.integers(1, 5)))
    return posts, engagement, space, g, policies, signals, run


@settings(max_examples=200, deadline=None)
@given(inputs=evaluation_inputs())
def test_batch_evaluation_matches_the_per_minute_reference(inputs, tmp_path_factory):
    posts, engagement, space, g, policies, signals, run = inputs
    log = [line("post", iid, iid, ts) for iid, ts in posts.items()]
    log += [line(kind, iid, f"e{k}", minute * 60 + k % 60)
            for k, (kind, iid, minute) in enumerate(engagement)]
    table = build_timelines(parse_event_log(log))
    cfg = config(run["window"], policies, signals, horizon=run["horizon"],
                 decision_interval=run["interval"], peak_hours=run["peak_hours"],
                 relevance_cap=run["cap"])
    report = evaluate_run(table, space, IndexTable(g=np.array(g)), cfg)
    minutes, counts, series, skipped, rows = evaluate_reference(
        posts, engagement, space.bins.novelty_limits, space.bins.popularity_limits,
        space.reward.tolist(), g, policies, signals, **run)
    assert report.minutes == minutes
    assert report.active_counts.tolist() == counts
    assert report.skipped_empty == skipped
    assert {(p, s): report.scores[i, j].tolist() for i, p in enumerate(policies)
            for j, s in enumerate(signals)} == series  # exact: every float bit for bit
    path = tmp_path_factory.mktemp("snapshots") / "snapshots.csv"
    write_snapshots_csv(table, policies, report.rankings, path)
    with open(path, newline="") as fh:
        assert list(csv.reader(fh))[1:] == [list(map(str, row)) for row in rows]
