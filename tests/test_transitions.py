import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedrank import transitions
from feedrank.errors import DataError
from feedrank.events import build_timelines, parse_event_log
from feedrank.states import BinSpec, classify
from feedrank.transitions import (
    MAX_SMOOTHING, TransitionModel, build_model, derive_p0, estimate_p1,
)
from eventlog import line
from oracles import count_transitions_bruteforce, rows_to_probabilities

SMALL_NOV = (1, 2, 3, 4)          # three one-minute novelty bins
SMALL_POP = (0.0, 1.0, math.inf)  # zero counts vs everything else


def small_bins():
    return BinSpec(SMALL_NOV, SMALL_POP)


def post(iid, minute):
    return line("post", iid, iid, minute * 60)


def retweet(iid, k, minute):
    return line("retweet", iid, f"{iid}-r{k}", minute * 60)


def test_single_item_walk():
    bins = small_bins()
    events = [post("t1", 5), retweet("t1", 0, 6)]
    timelines = build_timelines(parse_event_log(events))
    p1 = estimate_p1(timelines, bins, (5, 12))
    # Walk: 0 -> (1,1)=1 -> (2,2)=4 -> (3,2)=6 -> 0, then two idle
    # minutes at state 0. Unvisited rows self-loop.
    assert p1[0, 0] == pytest.approx(2 / 3)
    assert p1[0, 1] == pytest.approx(1 / 3)
    assert p1[1, 4] == 1.0
    assert p1[4, 6] == 1.0
    assert p1[6, 0] == 1.0
    for row in (2, 3, 5):
        assert p1[row, row] == 1.0
    assert np.allclose(p1.sum(axis=1), 1.0, atol=1e-12)


def test_two_items_split_row():
    bins = small_bins()
    events = [post("a", 0), post("b", 0), retweet("a", 0, 1)]
    timelines = build_timelines(parse_event_log(events))
    p1 = estimate_p1(timelines, bins, (0, 3))
    # Both items: 0 -> state 1. Then a (one retweet visible at t=2)
    # moves to (2,2)=4 while b moves to (2,1)=3.
    assert p1[0, 1] == 1.0
    assert p1[1, 3] == pytest.approx(0.5)
    assert p1[1, 4] == pytest.approx(0.5)


def test_smoothing_adds_to_every_cell():
    bins = small_bins()
    events = [post("t1", 5), retweet("t1", 0, 6)]
    timelines = build_timelines(parse_event_log(events))
    s = 0.5
    p1 = estimate_p1(timelines, bins, (5, 12), smoothing=s)
    n = bins.n_states
    assert p1[0, 0] == pytest.approx((2 + s) / (3 + s * n))
    assert p1[0, 1] == pytest.approx((1 + s) / (3 + s * n))
    # Unobserved rows become uniform instead of self-loops.
    assert np.allclose(p1[2], 1.0 / n)
    assert np.allclose(p1.sum(axis=1), 1.0, atol=1e-12)
    # The largest smoothing still gives rows that sum to 1; a larger one is refused.
    p1 = estimate_p1(timelines, bins, (5, 12), smoothing=MAX_SMOOTHING)
    assert np.allclose(p1.sum(axis=1), 1.0, atol=1e-12)
    for bad in (-0.5, math.nan, 1e308, math.inf):
        with pytest.raises(DataError):
            estimate_p1(timelines, bins, (5, 12), smoothing=bad)


def random_corpus(rng, n_items=40, window=(10, 40)):
    events = []
    oracle_items = {}
    for i in range(n_items):
        iid = f"i{i:03d}"
        post_minute = int(rng.integers(0, 45))
        n_rt = int(rng.integers(0, 6))
        rts = sorted(int(post_minute + rng.integers(0, 12)) for _ in range(n_rt))
        events.append(post(iid, post_minute))
        events.extend(retweet(iid, k, m) for k, m in enumerate(rts))
        oracle_items[iid] = (post_minute, rts)
    return events, oracle_items


def test_estimator_matches_bruteforce_counts():
    bins = small_bins()
    rng = np.random.default_rng(42)
    for trial in range(10):
        events, oracle_items = random_corpus(rng)
        window = (10, 40)
        timelines = build_timelines(parse_event_log(events))
        if not ((10 <= timelines.post_minute) & (timelines.post_minute < 40)).any():
            continue
        p1 = estimate_p1(timelines, bins, window)
        counts = count_transitions_bruteforce(
            oracle_items, SMALL_NOV, SMALL_POP,
            bins.n_popularity_bins, window)
        # Invariant: one transition per item per window minute pair.
        assert counts.sum() == len(oracle_items) * (window[1] - window[0] - 1)
        expected = rows_to_probabilities(counts)
        assert np.allclose(p1, expected, atol=1e-14)


def test_estimate_p1_classifies_each_item_minute_once(monkeypatch):
    bins = small_bins()
    max_age = SMALL_NOV[-1] - 1
    events, _ = random_corpus(np.random.default_rng(44))
    timelines = build_timelines(parse_event_log(events))
    start, end = window = (10, 40)
    calls = []

    def counting_classify(ages, counts, grid):
        calls.append(np.size(ages))
        return classify(ages, counts, grid)

    monkeypatch.setattr(transitions, "classify", counting_classify)
    estimate_p1(timelines, bins, window)
    # The transitions that can touch a non-zero state start at minutes
    # post..post + max_age; each item-minute they cover is classified once.
    item_minutes = {(row, m) for row, p in enumerate(timelines.post_minute.tolist())
                    for t in range(max(p, start), min(p + max_age, end - 2) + 1)
                    for m in (t, t + 1)}
    assert calls == [len(item_minutes)]


def test_all_idle_window_is_one_self_loop_per_row():
    bins = small_bins()
    # The only post falls in the window's last minute: no item ever
    # leaves state 0 inside it, so every counted transition is 0 -> 0.
    timelines = build_timelines(parse_event_log([post("t1", 11)]))
    p1 = estimate_p1(timelines, bins, (5, 12))
    assert p1[0, 0] == 1.0
    assert np.array_equal(p1, np.eye(bins.n_states))


def test_estimator_errors():
    bins = small_bins()
    timelines = build_timelines(parse_event_log([post("t1", 5)]))
    with pytest.raises(DataError):
        estimate_p1(timelines, bins, (5, 6))
    with pytest.raises(DataError):
        estimate_p1(timelines, bins, (20, 30))
    for smoothing in (-0.1, math.nan):
        with pytest.raises(DataError):
            estimate_p1(timelines, bins, (5, 12), smoothing=smoothing)


def test_classify_before_post_is_state_zero():
    bins = small_bins()
    table = build_timelines(parse_event_log([post("t1", 10)]))
    ages = np.array([9, 10, 11]) - table.post_minute[0]
    # Before the post and at age 0 (not rankable yet) the state is 0.
    assert classify(ages, np.zeros(3, dtype=int), bins).tolist() == [0, 0, 1]


def test_derive_p0_worked_example():
    p1 = np.array([[0.4, 0.6], [0.3, 0.7]])
    p0 = derive_p0(p1, 0.1)
    assert p0[0, 0] == pytest.approx(0.94)
    assert p0[0, 1] == pytest.approx(0.06)
    assert p0[1, 0] == pytest.approx(0.03)
    assert p0[1, 1] == pytest.approx(0.97)


def test_derive_p0_limits():
    rng = np.random.default_rng(3)
    p1 = rng.dirichlet(np.ones(5), size=5)
    assert np.array_equal(derive_p0(p1, 1.0), p1)
    assert np.array_equal(derive_p0(p1, 0.0), np.eye(5))


def test_derive_p0_vector_epsilon():
    p1 = np.array([[0.4, 0.6], [0.3, 0.7]])
    p0 = derive_p0(p1, [0.0, 1.0])
    assert np.array_equal(p0[0], [1.0, 0.0])
    assert np.allclose(p0[1], p1[1])
    with pytest.raises(DataError):
        derive_p0(p1, [0.5, 0.5, 0.5])
    with pytest.raises(DataError):
        derive_p0(p1, 1.5)


@given(st.lists(st.floats(min_value=0.01, max_value=1.0),
                min_size=2, max_size=8),
       st.floats(min_value=0.0, max_value=1.0))
def test_derive_p0_preserves_row_sums(weights, eps):
    row = np.array(weights) / sum(weights)
    n = len(row)
    p1 = np.tile(row, (n, 1))
    p0 = derive_p0(p1, eps)
    assert np.all(p0 >= 0)
    assert np.allclose(p0.sum(axis=1), 1.0, atol=1e-12)


def test_transition_model_validation():
    p1 = np.array([[0.5, 0.5], [0.2, 0.8]])
    model = build_model(p1, epsilon=0.1, beta=0.9)
    assert model.n_states == 2
    assert np.allclose(model.p0, derive_p0(p1, 0.1))
    with pytest.raises(DataError):
        build_model(p1, epsilon=0.1, beta=0.0)
    with pytest.raises(DataError):
        build_model(p1, epsilon=0.1, beta=1.5)
    with pytest.raises(DataError):
        build_model(np.array([[0.5, 0.6], [0.2, 0.8]]))
    with pytest.raises(DataError):
        TransitionModel(p1=p1, p0=np.eye(3))
    # The model holds no epsilon: it lives only where p0 is derived.
    with pytest.raises(TypeError):
        TransitionModel(p1=p1, p0=np.eye(2), epsilon=0.1)
    with pytest.raises(DataError, match="epsilon"):
        build_model(p1, epsilon=np.full(2, 1.4))
    # NaN fails every range check: entries, epsilon and beta.
    with pytest.raises(DataError, match="p1 entries"):
        build_model(np.array([[np.nan, 0.5], [0.2, 0.8]]))
    with pytest.raises(DataError, match="epsilon"):
        build_model(p1, epsilon=[0.1, np.nan])
    with pytest.raises(DataError, match="beta"):
        build_model(p1, beta=np.nan)
