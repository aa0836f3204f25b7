import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from feedrank.config import generator_from_dict
from feedrank.errors import ConfigError, DataError
from feedrank.events import build_timelines, serialize_event_log
from feedrank.states import BinSpec, build_state_space
from feedrank.synth import GeneratorConfig, generate_stream
from feedrank.transitions import estimate_p1
from eventlog import rows
from oracles import powerlaw_alpha_mle
from samplers import generate_markov_stream, sample_power_law


def final_counts(table):
    return table.count("retweet", np.arange(len(table)), 0, table.stride)


def small_config(**overrides):
    base = GeneratorConfig(seed=7, n_accounts=3, days=7, posts_per_day=20.0)
    return replace(base, **overrides)


def test_stream_is_deterministic():
    a = rows(generate_stream(small_config()))
    b = rows(generate_stream(small_config()))
    assert a == b
    c = rows(generate_stream(small_config(seed=8)))
    assert a != c


def test_stream_is_sorted_and_well_formed():
    events = generate_stream(small_config())
    assert (np.diff(events.ts) >= 0).all()
    timelines = build_timelines(events)  # no orphans, no pre-post engagement
    assert len(timelines) > 100


def test_engagement_stays_within_the_hour():
    events = generate_stream(small_config())
    table = build_timelines(events)
    for kind in ("retweet", "reply", "favorite"):
        rows, minutes = table.events(kind)
        ages = minutes - table.post_minute[rows]
        assert ages.size and ages.min() >= 1 and ages.max() <= 59


def test_zero_fraction_hits_target():
    events = generate_stream(small_config(days=14, posts_per_day=40.0,
                                          zero_fraction=0.25))
    table = build_timelines(events)
    zero_share = np.mean(final_counts(table) == 0)
    assert abs(zero_share - 0.25) < 0.04


def test_power_law_sampler_matches_mle():
    rng = np.random.default_rng(123)
    samples = sample_power_law(rng, alpha=2.3, x_min=1, size=30_000)
    assert samples.min() >= 1
    alpha_hat = powerlaw_alpha_mle(samples, x_min=1, cap=1_000_000)
    assert abs(alpha_hat - 2.3) < 0.05


def test_final_counts_follow_power_law():
    events = generate_stream(small_config(days=21, posts_per_day=40.0,
                                          n_accounts=4))
    counts = final_counts(build_timelines(events))
    nonzero = counts[counts > 0].tolist()
    assert len(nonzero) > 1000
    alpha_hat = powerlaw_alpha_mle(nonzero, x_min=1, cap=1_000_000)
    assert abs(alpha_hat - 2.3) < 0.1


def test_weekends_are_quieter():
    cfg = small_config(days=28, posts_per_day=30.0)
    events = generate_stream(cfg)
    days = events.ts[events.kind == 0] // 86400
    by_weekday = np.bincount((days + 3) % 7, minlength=7)
    weekday_mean = by_weekday[:5].mean() / 4   # 4 of each weekday in 28 days
    sunday_mean = by_weekday[6] / 4
    assert sunday_mean < weekday_mean


def test_diurnal_profile_peaks_after_noon():
    events = generate_stream(small_config(days=14, posts_per_day=40.0))
    hours = events.ts[events.kind == 0] % 86400 // 3600
    peak = np.isin(hours, list(set(range(12, 24)) | {0, 1})).sum()
    off = hours.size - peak
    assert peak > 2.5 * off


def test_peak_magnitude_boost_raises_peak_counts():
    base = small_config(days=14, posts_per_day=40.0, zero_fraction=0.0)
    boosted = replace(base, peak_magnitude_scale=4.0)
    peak_hours = set(range(12, 24)) | {0, 1}

    def mean_peak_count(events):
        table = build_timelines(events)
        hours = (table.post_minute % 1440) // 60
        counts = final_counts(table)[np.isin(hours, list(peak_hours))]
        return np.mean(counts)

    assert mean_peak_count(generate_stream(boosted)) > \
        2.0 * mean_peak_count(generate_stream(base))


def test_stream_bytes_are_pinned():
    # Any change to a draw, its order or the id and account formats moves the digest.
    out = io.StringIO()
    serialize_event_log(generate_stream(small_config()), out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == \
        "ed8ed3c1b35141cb00a0a2d9551f9ee573af477b5829aac84eb1caa6c94f5c2b"


def test_generator_validation():
    # Out-of-range values are refused when the config is built.
    for bad in ({"alpha": 1.0}, {"zero_fraction": 1.0}, {"gamma": 0.0}):
        with pytest.raises(ConfigError):
            small_config(**bad)
    # The weekly and daily profiles and the peak hours are constants, not keys.
    for fixed in ({"weekday_factors": [1.0]}, {"boost_hours": [24]}):
        with pytest.raises(ConfigError, match="unknown generator key"):
            generator_from_dict(fixed)
    with pytest.raises(ConfigError):
        GeneratorConfig(days=-3)
    with pytest.raises(DataError):
        generate_stream(small_config(posts_per_day=0.0, days=1, n_accounts=1))


def markov_space():
    bins = BinSpec((1, 2, 3), (0.0, 1.0, math.inf))
    return build_state_space(bins, (1.0, 0.5), (0.5, 1.0))


def markov_chain():
    # States: 0, (1,1)=1, (1,2)=2, (2,1)=3, (2,2)=4.
    return np.array([
        [0.0, 0.7, 0.3, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.6, 0.4],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
    ])


def test_markov_stream_recovers_chain():
    space = markov_space()
    p1_true = markov_chain()
    events = generate_markov_stream(space, p1_true, n_items=4000, seed=3,
                                    start_minute=100)
    timelines = build_timelines(events)
    window = (100, 100 + space.bins.n_novelty_bins + 2)
    p1_hat = estimate_p1(timelines, space, window)
    assert np.abs(p1_hat - p1_true).max() < 0.05
    # Deterministic rows are recovered exactly.
    assert p1_hat[2, 4] == 1.0
    assert p1_hat[3, 0] == 1.0
    assert p1_hat[4, 0] == 1.0


def test_markov_stream_is_deterministic():
    space = markov_space()
    a = generate_markov_stream(space, markov_chain(), n_items=50, seed=1)
    b = generate_markov_stream(space, markov_chain(), n_items=50, seed=1)
    assert rows(a) == rows(b)


def test_markov_stream_emits_minimum_counts():
    space = markov_space()
    p1 = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0],   # always enter at popularity bin 2
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
    ])
    events = generate_markov_stream(space, p1, n_items=3, seed=5,
                                    start_minute=10)
    table = build_timelines(events)
    rows = np.arange(len(table))
    # Popularity bin 2 needs exactly one retweet, visible from age 1:
    # it must be emitted in the post minute.
    assert table.count("retweet", rows, 0, 11).tolist() == [1, 1, 1]
    assert final_counts(table).tolist() == [1, 1, 1]


def test_markov_stream_structural_validation():
    space = markov_space()
    good = markov_chain()

    wide_bins = BinSpec((1, 3, 5), (0.0, 1.0, math.inf))
    wide_space = build_state_space(wide_bins, (1.0, 0.5), (0.5, 1.0))
    with pytest.raises(DataError):
        generate_markov_stream(wide_space, good, n_items=10, seed=1)

    bad = good.copy()
    bad[0, 0] = 0.7
    bad[0, 1] = 0.0
    with pytest.raises(DataError):
        generate_markov_stream(space, bad, n_items=10, seed=1)

    skip = good.copy()
    skip[1] = [0.0, 0.0, 0.0, 0.0, 0.0]
    skip[1, 1] = 1.0   # stays in novelty bin 1: not realizable by aging
    with pytest.raises(DataError):
        generate_markov_stream(space, skip, n_items=10, seed=1)

    drop = good.copy()
    drop[2] = [0.0, 0.0, 0.0, 1.0, 0.0]  # popularity bin decreases
    with pytest.raises(DataError):
        generate_markov_stream(space, drop, n_items=10, seed=1)

    early = good.copy()
    early[1] = [1.0, 0.0, 0.0, 0.0, 0.0]  # exits before the last bin
    with pytest.raises(DataError):
        generate_markov_stream(space, early, n_items=10, seed=1)

    tail = good.copy()
    tail[3] = [0.0, 0.0, 0.0, 1.0, 0.0]   # last bin must go to state 0
    with pytest.raises(DataError):
        generate_markov_stream(space, tail, n_items=10, seed=1)

    with pytest.raises(ConfigError):
        generate_markov_stream(space, good, n_items=0, seed=1)


def test_markov_stream_rejects_unreachable_popularity_bins():
    bins = BinSpec((1, 2, 3), (0.0, 5.0, 5.0, math.inf))
    space = build_state_space(bins, (1.0, 0.5), (0.4, 0.5, 1.0))
    # Popularity bin 2 covers no count at all (collapsed limits).
    p1 = np.zeros((7, 7))
    p1[0, 2] = 1.0
    p1[1, 4] = 1.0
    p1[2, 5] = 1.0
    p1[3, 6] = 1.0
    p1[4, 0] = 1.0
    p1[5, 0] = 1.0
    p1[6, 0] = 1.0
    with pytest.raises(DataError):
        generate_markov_stream(space, p1, n_items=5, seed=1)
