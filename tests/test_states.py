import bisect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feedrank.config import DEFAULT_NOVELTY_LIMITS, MAX_STATES
from feedrank.errors import DataError
from feedrank.events import build_timelines, parse_event_log
from feedrank.states import (
    BinSpec, StateSpace, classify, fit_popularity_bins, fit_rewards, novelty_bin,
    popularity_bin, state_bins, state_label,
)
from eventlog import line
from oracles import quantile_limits_bruteforce

# Bin limits and reward factors reported for a month-long training
# corpus; used here as a realistic fixture.
MONTH_POP_LIMITS = (0, 1, 19, 25, 32, 39, 48, 61, 82, 131, math.inf)
MONTH_R_N = (0.28, 1.0, 0.92, 0.79, 0.63, 0.51, 0.43, 0.37, 0.21, 0.07)
MONTH_R_P = (0.01, 0.07, 0.11, 0.16, 0.19, 0.24, 0.28, 0.34, 0.44, 1.0)


def month_bins():
    return BinSpec(DEFAULT_NOVELTY_LIMITS, MONTH_POP_LIMITS)


def test_default_bins_give_101_states():
    bins = month_bins()
    assert bins.n_novelty_bins == 10
    assert bins.n_popularity_bins == 10
    assert bins.n_states == 101


def test_novelty_bins_cover_documented_ranges():
    bins = month_bins()
    assert novelty_bin(0, bins) == 0
    for age in range(1, 10):
        assert novelty_bin(age, bins) == age
    assert novelty_bin(-1, bins) == 0
    assert novelty_bin(9, bins) == 9
    assert novelty_bin(19, bins) == 9
    assert novelty_bin(20, bins) == 10
    assert novelty_bin(59, bins) == 10
    assert novelty_bin(60, bins) == 0
    assert novelty_bin(61, bins) == 0


def test_popularity_bins_on_month_limits():
    bins = month_bins()
    assert popularity_bin(0, bins) == 1
    assert popularity_bin(1, bins) == 2
    assert popularity_bin(18, bins) == 2
    assert popularity_bin(19, bins) == 3
    assert popularity_bin(131, bins) == 10
    assert popularity_bin(10 ** 9, bins) == 10


def test_classify_documented_states():
    bins = month_bins()
    assert classify(61, 500, bins) == 0
    assert classify(1, 0, bins) == 1
    # Age 10 sits in novelty bin 9; 150 retweets in popularity bin 10.
    assert classify(10, 150, bins) == 90
    assert classify(2, 131, bins) == 20


def test_classify_counts_retweets_before_the_minute():
    bins = month_bins()
    events = [line("post", "a", "a", 600)]
    events += [line("retweet", "a", f"a-r{k}", 660) for k in range(19)]
    table = build_timelines(parse_event_log(events))
    # Post minute 10; the 19 retweets land in minute 11 and count from 12.
    minutes = np.array([11, 12, 70])
    states = classify(minutes - table.post_minute[0],
                      table.count("retweet", np.zeros(3, dtype=int), 0, minutes), bins)
    assert states.tolist() == [classify(1, 0, bins), classify(2, 19, bins), 0] == [1, 13, 0]


def scalar_state(age, count, bins):
    """The per-item loop the array classifier replaced."""
    lim = bins.novelty_limits
    if age < lim[0] or age > lim[-1] - 1:
        return 0
    nov = bisect.bisect_right(lim, age)
    return (nov - 1) * bins.n_popularity_bins + bisect.bisect_right(bins.popularity_limits, count)


def test_classify_arrays_match_the_scalar_loop():
    bins = month_bins()
    ages = np.array([-3, 0, 1, 9, 10, 19, 20, 59, 60, 61])
    counts = np.array([0, 5, 0, 131, 150, 18, 19, 10 ** 9, 2, 1])
    states = classify(ages, counts, bins)
    assert states.tolist() == [0, 0, 1, 90, 90, 82, 93, 100, 0, 0]
    assert states.tolist() == [scalar_state(a, c, bins) for a, c in zip(ages, counts)]


def test_reward_peaks_at_state_20():
    space = StateSpace(month_bins(), MONTH_R_N, MONTH_R_P)
    assert space.reward[0] == 0.0
    assert int(np.argmax(space.reward)) == 20
    assert space.reward[20] == pytest.approx(1.0)
    assert space.reward[90] == pytest.approx(0.21 * 1.0)
    assert space.label(20) == "(2,10)"
    assert state_bins(90, space.bins) == (9, 10)


def test_reward_follows_classify_numbering():
    # Distinct limits and factors, so a transposed grid cannot pass.
    bins = BinSpec((2, 5, 9, 14), (0, 3, 7, math.inf))
    r_n, r_p = (0.5, 0.25, 1.0), (0.3, 1.0, 0.7)
    space = StateSpace(bins, r_n, r_p)
    lim, pop = bins.novelty_limits, bins.popularity_limits
    for n in range(1, bins.n_novelty_bins + 1):
        for p in range(1, bins.n_popularity_bins + 1):
            for age in (lim[n - 1], lim[n] - 1):
                for count in (pop[p - 1], pop[p] - 1 if p < len(pop) - 1 else 10 ** 6):
                    state = int(classify(age, count, bins))
                    assert state_bins(state, bins) == (n, p)
                    assert space.reward[state] == r_n[n - 1] * r_p[p - 1]
    assert space.reward[0] == 0.0 and space.reward.shape == (bins.n_states,)


def test_state_label_and_bins_round_trip():
    bins = month_bins()
    for idx in range(1, bins.n_states):
        n, p = state_bins(idx, bins)
        assert classify_age_for(n, bins) is not None
        assert (n - 1) * 10 + p == idx
    assert state_label(0, bins) == "0"
    with pytest.raises(ValueError):
        state_bins(0, bins)
    with pytest.raises(ValueError):
        state_bins(101, bins)


def classify_age_for(n, bins):
    """Any age inside novelty bin n."""
    return bins.novelty_limits[n - 1]


def test_binspec_validation():
    with pytest.raises(DataError):
        BinSpec((1, 1, 5), MONTH_POP_LIMITS)
    with pytest.raises(DataError):
        BinSpec((0, 5), MONTH_POP_LIMITS)
    with pytest.raises(DataError):
        BinSpec(DEFAULT_NOVELTY_LIMITS, (1, 5, math.inf))
    with pytest.raises(DataError):
        BinSpec(DEFAULT_NOVELTY_LIMITS, (0, 5, 4, math.inf))
    with pytest.raises(DataError):
        BinSpec(DEFAULT_NOVELTY_LIMITS, (0, 5, 10))
    with pytest.raises(DataError):
        BinSpec((1, 2 ** 31), MONTH_POP_LIMITS)  # ages beyond any timestamp
    # 4095 novelty bins x 1 popularity bin + state 0 is the largest grid.
    assert BinSpec(tuple(range(1, MAX_STATES + 1)), (0, math.inf)).n_states == MAX_STATES
    with pytest.raises(DataError, match="more than 4096"):
        BinSpec(tuple(range(1, MAX_STATES + 2)), (0, math.inf))
    with pytest.raises(DataError, match="more than 4096"):
        BinSpec(DEFAULT_NOVELTY_LIMITS, tuple(range(410)) + (math.inf,))


def test_fit_popularity_bins_small_example():
    counts = [0, 0] + list(range(1, 11))
    limits = fit_popularity_bins(counts, n_bins=10)
    assert limits == (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, math.inf)
    assert limits == quantile_limits_bruteforce(counts, n_bins=10)


def test_fit_popularity_bins_matches_bruteforce_on_random_corpora():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        counts = rng.geometric(0.05, size=n) - 1
        if not np.any(counts > 0):
            counts[0] = 3
        got = fit_popularity_bins(counts.tolist(), n_bins=10)
        assert got == quantile_limits_bruteforce(counts.tolist(), n_bins=10)
        BinSpec(DEFAULT_NOVELTY_LIMITS, got)  # always a valid spec


def test_fit_popularity_bins_collapsed_limits():
    limits = fit_popularity_bins([0, 5, 5, 5, 5, 5], n_bins=10)
    assert limits[0] == 0
    assert set(limits[1:-1]) == {5.0}
    bins = BinSpec(DEFAULT_NOVELTY_LIMITS, limits)
    # All-equal counts: every nonzero count lands in the last bin.
    assert popularity_bin(5, bins) == 10
    assert popularity_bin(4, bins) == 1
    assert popularity_bin(0, bins) == 1


def test_fit_popularity_bins_errors():
    with pytest.raises(DataError):
        fit_popularity_bins([])
    with pytest.raises(DataError):
        fit_popularity_bins([0, 0, 0])
    with pytest.raises(DataError):
        fit_popularity_bins([3, -1])


def post(iid, minute):
    return line("post", iid, iid, minute * 60)


def retweet(iid, k, minute):
    return line("retweet", iid, f"{iid}-r{k}", minute * 60)


def test_fit_rewards_single_spike():
    # One item, all retweets at age 2: r_n peaks at bin 2 and is zero
    # elsewhere.
    events = [post("t1", 100)]
    events += [retweet("t1", k, 102) for k in range(4)]
    timelines = build_timelines(parse_event_log(events))
    bins = BinSpec(DEFAULT_NOVELTY_LIMITS, fit_popularity_bins([4], n_bins=10))
    r_n, r_p = fit_rewards(timelines, bins)
    assert r_n[1] == 1.0
    assert sum(r_n) == 1.0


def test_fit_rewards_zero_bin_convention():
    # Two items: one with zero retweets, one with plenty. The zero bin
    # gets raw mean 1 before normalization.
    events = [post("t1", 0), post("t2", 0)]
    events += [retweet("t2", k, 1) for k in range(50)]
    timelines = build_timelines(parse_event_log(events))
    limits = fit_popularity_bins([0, 50], n_bins=10)
    bins = BinSpec(DEFAULT_NOVELTY_LIMITS, limits)
    r_n, r_p = fit_rewards(timelines, bins)
    zero_bin = popularity_bin(0, bins)
    top_bin = popularity_bin(50, bins)
    assert r_p[top_bin - 1] == 1.0
    assert r_p[zero_bin - 1] == pytest.approx(1.0 / 50.0)


def test_fit_rewards_requires_in_window_retweets():
    events = [post("t1", 0), retweet("t1", 0, 70)]  # age 70: outside bins
    timelines = build_timelines(parse_event_log(events))
    bins = BinSpec(DEFAULT_NOVELTY_LIMITS, (0, 1, math.inf))
    with pytest.raises(DataError):
        fit_rewards(timelines, bins)


def test_state_space_validation():
    bins = month_bins()
    with pytest.raises(DataError, match="^r_n length does not match the novelty bin count$"):
        StateSpace(bins, MONTH_R_N[:-1], MONTH_R_P)
    with pytest.raises(DataError, match="^r_p length does not match the popularity bin count$"):
        StateSpace(bins, MONTH_R_N, MONTH_R_P[:-1])
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(DataError, match=r"^reward factors must lie in \[0, 1\]$"):
            StateSpace(bins, MONTH_R_N, MONTH_R_P[:-1] + (bad,))
    with pytest.raises(TypeError):  # reward is derived, never given
        StateSpace(bins, MONTH_R_N, MONTH_R_P, np.zeros(bins.n_states))


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10 ** 12))
def test_classify_total_on_default_bins(age, count):
    bins = month_bins()
    state = classify(age, count, bins)
    assert state == scalar_state(age, count, bins)
    assert 0 <= state <= 100
    in_window = 1 <= age <= 59
    assert (state > 0) == in_window


@given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                min_size=1, max_size=300))
def test_fitted_bins_classify_every_count(counts):
    if not any(c > 0 for c in counts):
        counts = counts + [1]
    limits = fit_popularity_bins(counts, n_bins=10)
    bins = BinSpec(DEFAULT_NOVELTY_LIMITS, limits)
    for c in counts + [0, max(counts) + 1000]:
        assert 1 <= popularity_bin(c, bins) <= 10


@given(st.integers(min_value=0, max_value=200),
       st.integers(min_value=0, max_value=200))
def test_popularity_bin_monotone(a, b):
    bins = month_bins()
    if a <= b:
        assert popularity_bin(a, bins) <= popularity_bin(b, bins)
