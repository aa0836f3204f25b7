import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedrank.config import generator_from_dict
from feedrank.errors import ConfigError, DataError
from feedrank.events import build_timelines, serialize_event_log
from feedrank.states import BinSpec, build_state_space
from feedrank import synth
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


def per_event_stream(config):
    """The rows of ``generate_stream``, from one loop per event with one
    seconds draw per minute offset, sorted by the tuple sort."""
    rng = np.random.default_rng(config.seed)
    diurnal = np.asarray(synth.DIURNAL_WEIGHTS, dtype=float)
    diurnal = diurnal / diurnal.sum()
    decay = synth._decay_weights(config)
    cdf = synth._power_law_cdf(config.alpha, config.x_min, config.magnitude_cap)
    events, item_seq = [], 0
    for day in range(config.days):
        day_rate = config.posts_per_day * synth.WEEKDAY_FACTORS[synth._weekday(day)]
        for acct in range(config.n_accounts):
            n_posts = int(rng.poisson(day_rate))
            if n_posts == 0:
                continue
            hours = rng.choice(24, size=n_posts, p=diurnal)
            seconds = rng.integers(0, 3600, size=n_posts)
            for k in range(n_posts):
                hour = int(hours[k])
                ts = day * 86400 + hour * 3600 + int(seconds[k])
                item_id = f"t{item_seq:06d}"
                item_seq += 1
                events.append(("post", item_id, item_id, ts, f"acct{acct:02d}"))
                if rng.random() < config.zero_fraction:
                    continue
                magnitude = int(config.x_min + np.searchsorted(cdf, rng.random()))
                if config.peak_magnitude_scale != 1.0 and hour in synth.PEAK_HOURS:
                    magnitude = max(config.x_min,
                                    int(round(magnitude * config.peak_magnitude_scale)))
                weights = decay * rng.lognormal(0.0, 0.35, size=decay.size)
                per_minute = rng.multinomial(magnitude, weights / weights.sum())
                replies = rng.binomial(per_minute, 0.3)
                favorites = rng.binomial(per_minute, 0.2)
                counter = 0
                for off in np.flatnonzero(per_minute):
                    minute = ts // 60 + int(off) + 1
                    secs = rng.integers(0, 60, size=int(per_minute[off]))
                    for c, sec in enumerate(secs.tolist(), counter):
                        events.append(("retweet", item_id, f"{item_id}-r{c}", minute * 60 + sec,
                                       f"user{c}"))
                    for kind, tag, n in (("reply", "p", replies[off]),
                                         ("favorite", "f", favorites[off])):
                        for c in range(counter, counter + int(n)):
                            events.append((kind, item_id, f"{item_id}-{tag}{c}", minute * 60,
                                           f"user{c}"))
                    counter += secs.size
    return sorted(events, key=lambda e: (e[3], e[0] != "post", e[1], e[2]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), n_accounts=st.integers(1, 3), days=st.integers(1, 3),
       posts_per_day=st.sampled_from([0.5, 3.0, 12.0]), alpha=st.sampled_from([1.5, 2.3]),
       x_min=st.integers(1, 4), zero_fraction=st.sampled_from([0.0, 0.35, 0.95]),
       peak_magnitude_scale=st.sampled_from([1.0, 0.3, 2.5]), cap=st.integers(0, 300))
def test_stream_matches_the_per_event_loop(seed, n_accounts, days, posts_per_day, alpha, x_min,
                                           zero_fraction, peak_magnitude_scale, cap):
    config = GeneratorConfig(seed=seed, n_accounts=n_accounts, days=days,
                             posts_per_day=posts_per_day, alpha=alpha, x_min=x_min,
                             zero_fraction=zero_fraction,
                             peak_magnitude_scale=peak_magnitude_scale,
                             magnitude_cap=x_min + cap)
    expected = per_event_stream(config)
    if not expected:
        with pytest.raises(DataError):
            generate_stream(config)
        return
    assert rows(generate_stream(config)) == expected


# Ids that share prefixes ("t000001-r10" against "t000001-r2"), and any
# other text without NUL.
_ITEMS = st.sampled_from(["t000001", "t00000", "t0000010", "t000001-r1"]) | \
    st.text(st.characters(blacklist_characters="\x00"), max_size=3)
_SUFFIXES = st.sampled_from(["", "-r1", "-r2", "-r10", "-r20", "-p2", "-f10"]) | \
    st.text(st.characters(blacklist_characters="\x00"), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _ITEMS, _SUFFIXES, st.integers(0, 2),
                          st.text(max_size=2)), min_size=1, max_size=30))
def test_sorted_batch_orders_as_the_tuple_sort(drawn):
    kinds, items, suffixes, stamps, accounts = map(list, zip(*drawn))
    event_ids = list(map(str.__add__, items, suffixes))
    keys = list(zip(stamps, map(bool, kinds), items, event_ids))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    batch = synth._sorted_batch(kinds, items, event_ids, stamps, accounts)
    assert batch.kind.dtype == np.int8 and batch.ts.dtype == np.int64
    assert list(zip(batch.kind.tolist(), batch.item_id, batch.event_id, batch.ts.tolist(),
                    batch.account)) == \
        [(kinds[i], items[i], event_ids[i], stamps[i], accounts[i]) for i in order]


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
