"""Seeded synthetic event streams shaped like a news-feed corpus.

``generate_stream`` produces posts with heavy-tailed retweet totals, a
sharp early engagement peak with power-law decay, a diurnal posting
profile, and lighter weekends. All retweets land inside the display
window (within an hour of the post). ``generate_markov_stream`` instead
emits items that walk a known state chain, which makes it a ground
truth for the transition estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .events import EventBatch
from .states import StateSpace

PEAK_HOURS = (12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 0, 1)

# Hour-of-day posting weights, UTC, peaking between 12:00 and 02:00.
DEFAULT_DIURNAL_WEIGHTS = (
    1.0, 1.0, 0.45, 0.3, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.5,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
)

# Monday..Sunday activity factors; weekends post less, Sunday least.
DEFAULT_WEEKDAY_FACTORS = (1.0, 1.0, 1.0, 1.0, 1.0, 0.8, 0.65)

_SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic stream.

    ``posts_per_day`` is the weekday mean per account. Retweet totals
    mix a point mass at zero with a discrete power law of exponent
    ``alpha`` starting at ``x_min``. A tweet's retweets spread over
    minute offsets 1..59 after the post with explicit weights for the
    first three minutes (the empirical peak sits at minutes 2 and 3)
    and a ``offset^-gamma`` tail after them. Replies and favorites are
    thinned from the retweet allocation.
    """

    seed: int = 1
    n_accounts: int = 5
    days: int = 14
    posts_per_day: float = 40.0
    weekday_factors: tuple[float, ...] = DEFAULT_WEEKDAY_FACTORS
    diurnal_weights: tuple[float, ...] = DEFAULT_DIURNAL_WEIGHTS
    alpha: float = 2.3
    x_min: int = 1
    zero_fraction: float = 0.15
    gamma: float = 1.0
    early_weights: tuple[float, float, float] = (0.55, 1.0, 0.92)
    reply_fraction: float = 0.3
    favorite_fraction: float = 0.2
    allocation_jitter: float = 0.35
    peak_magnitude_scale: float = 1.0
    boost_hours: tuple[int, ...] = PEAK_HOURS
    start_day: int = 0
    magnitude_cap: int = 1_000_000

    def __post_init__(self) -> None:
        # Checked when built. Each field holds the number type of its default
        # (tuple fields: of their entries); bools are not numbers here.
        for f in fields(self):
            value = getattr(self, f.name)
            is_tuple = isinstance(f.default, tuple)
            sample = f.default[0] if is_tuple else f.default
            if is_tuple and not isinstance(value, tuple):
                raise ConfigError(f"{f.name} must be a list of numbers, got {value!r}")
            for v in value if is_tuple else (value,):
                if isinstance(sample, int):
                    if isinstance(v, bool) or not isinstance(v, Integral):
                        raise ConfigError(f"{f.name} must hold integers, got {v!r}")
                elif isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
                    raise ConfigError(f"{f.name} must hold finite numbers, got {v!r}")
        if self.seed < 0 or self.start_day < 0:
            raise ConfigError("seed and start_day must be >= 0")
        if self.n_accounts < 1 or self.days < 1:
            raise ConfigError("need at least one account and one day")
        if self.posts_per_day < 0:
            raise ConfigError("posts_per_day must be >= 0")
        if len(self.weekday_factors) != 7 or any(w < 0 for w in self.weekday_factors):
            raise ConfigError("weekday_factors must be 7 non-negative values")
        if len(self.diurnal_weights) != 24 or any(w < 0 for w in self.diurnal_weights):
            raise ConfigError("diurnal_weights must be 24 non-negative values")
        if sum(self.diurnal_weights) <= 0:
            raise ConfigError("diurnal_weights must not all be zero")
        if self.alpha <= 1:
            raise ConfigError("alpha must exceed 1")
        if self.x_min < 1:
            raise ConfigError("x_min must be >= 1")
        if not 0 <= self.zero_fraction < 1:
            raise ConfigError("zero_fraction must lie in [0, 1)")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if len(self.early_weights) != 3 or any(w <= 0 for w in self.early_weights):
            raise ConfigError("early_weights must be 3 positive values")
        if not 0 <= self.reply_fraction <= 1 or not 0 <= self.favorite_fraction <= 1:
            raise ConfigError("reply and favorite fractions must lie in [0, 1]")
        if self.allocation_jitter < 0:
            raise ConfigError("allocation_jitter must be >= 0")
        if self.peak_magnitude_scale <= 0:
            raise ConfigError("peak_magnitude_scale must be positive")
        if any(h < 0 or h > 23 for h in self.boost_hours):
            raise ConfigError("boost_hours must lie in 0..23")
        if self.magnitude_cap < self.x_min:
            raise ConfigError("magnitude_cap must be >= x_min")


def _power_law_cdf(alpha: float, x_min: int, cap: int) -> np.ndarray:
    xs = np.arange(x_min, cap + 1, dtype=float)
    pmf = xs ** (-alpha)
    cdf = np.cumsum(pmf)
    return cdf / cdf[-1]


def sample_power_law(rng: np.random.Generator, alpha: float, x_min: int,
                     size: int, cap: int = 1_000_000) -> np.ndarray:
    """Draw from a discrete power law P(X = x) ~ x^-alpha, x >= x_min.

    Exact inverse-CDF sampling on the support truncated at ``cap``; the
    truncated tail mass is negligible for the exponents used here.
    """
    cdf = _power_law_cdf(alpha, x_min, cap)
    idx = np.searchsorted(cdf, rng.random(size), side="left")
    return x_min + idx


def _decay_weights(cfg: GeneratorConfig) -> np.ndarray:
    # Minute offsets 1..59 after the post; all engagement stays within
    # the hour by construction.
    w = np.empty(59)
    w[0:3] = cfg.early_weights
    offsets = np.arange(4, 60, dtype=float)
    w[3:] = cfg.early_weights[2] * (offsets / 3.0) ** (-cfg.gamma)
    return w / w.sum()


def _weekday(abs_day: int) -> int:
    # Day 0 of the epoch was a Thursday; Monday = 0.
    return (abs_day + 3) % 7


def generate_stream(config: GeneratorConfig) -> EventBatch:
    """Generate a seeded synthetic event stream, sorted by timestamp."""
    rng = np.random.default_rng(config.seed)
    diurnal = np.asarray(config.diurnal_weights, dtype=float)
    diurnal = diurnal / diurnal.sum()
    decay = _decay_weights(config)
    cdf = _power_law_cdf(config.alpha, config.x_min, config.magnitude_cap)
    boost_hours = frozenset(config.boost_hours)

    columns: tuple[list, ...] = ([], [], [], [], [])
    kinds, item_ids, event_ids, stamps, accounts = columns
    item_seq = 0
    for day in range(config.days):
        abs_day = config.start_day + day
        day_rate = config.posts_per_day * config.weekday_factors[_weekday(abs_day)]
        for acct in range(config.n_accounts):
            account = f"acct{acct:02d}"
            n_posts = int(rng.poisson(day_rate))
            if n_posts == 0:
                continue
            hours = rng.choice(24, size=n_posts, p=diurnal)
            seconds = rng.integers(0, 3600, size=n_posts)
            for k in range(n_posts):
                hour = int(hours[k])
                ts = abs_day * _SECONDS_PER_DAY + hour * 3600 + int(seconds[k])
                item_id = f"t{item_seq:06d}"
                item_seq += 1
                for column, value in zip(columns, (0, item_id, item_id, ts, account)):
                    column.append(value)

                if rng.random() < config.zero_fraction:
                    continue
                magnitude = int(config.x_min + np.searchsorted(cdf, rng.random()))
                if config.peak_magnitude_scale != 1.0 and hour in boost_hours:
                    magnitude = max(
                        config.x_min,
                        int(round(magnitude * config.peak_magnitude_scale)),
                    )
                weights = decay
                if config.allocation_jitter > 0:
                    jitter = rng.lognormal(0.0, config.allocation_jitter, size=decay.size)
                    weights = decay * jitter
                    weights = weights / weights.sum()
                per_minute = rng.multinomial(magnitude, weights)
                replies = rng.binomial(per_minute, config.reply_fraction)
                favorites = rng.binomial(per_minute, config.favorite_fraction)
                post_minute = ts // 60
                counter = 0
                for off in np.flatnonzero(per_minute):
                    minute = post_minute + int(off) + 1
                    rt = int(per_minute[off])
                    n_replies, n_favorites = int(replies[off]), int(favorites[off])
                    secs = rng.integers(0, 60, size=rt)
                    # The j-th retweet, reply and favorite of a minute share user j.
                    users = [f"user{c}" for c in range(counter, counter + rt)]
                    kinds += [1] * rt + [2] * n_replies + [3] * n_favorites
                    item_ids += [item_id] * (rt + n_replies + n_favorites)
                    for tag, count in (("r", rt), ("p", n_replies), ("f", n_favorites)):
                        event_ids += [f"{item_id}-{tag}{c}"
                                      for c in range(counter, counter + count)]
                    stamps += (minute * 60 + secs).tolist()
                    stamps += [minute * 60] * (n_replies + n_favorites)
                    accounts += users + users[:n_replies] + users[:n_favorites]
                    counter += rt

    if item_seq == 0:
        raise DataError("generator produced no posts; raise posts_per_day or days")
    return _sorted_batch(*columns)


def _sorted_batch(kinds, item_ids, event_ids, stamps, accounts) -> EventBatch:
    """The batch of these columns, sorted by (ts, post first, item_id, event_id)."""
    keys = list(zip(stamps, map(bool, kinds), item_ids, event_ids))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return EventBatch(np.array(kinds, dtype=np.int8)[order], [item_ids[i] for i in order],
                      [event_ids[i] for i in order], np.array(stamps, dtype=np.int64)[order],
                      [accounts[i] for i in order])


def _min_count_for_bin(bins, p: int) -> int:
    """Smallest retweet count classified into popularity bin ``p``."""
    candidate = int(bins.popularity_limits[p - 1])
    if bins.popularity_bin(candidate) != p:
        raise DataError(
            f"popularity bin {p} is unreachable: no count classifies into it"
        )
    return candidate


def generate_markov_stream(state_space: StateSpace, p1: np.ndarray, n_items: int,
                           seed: int, *, start_minute: int = 120,
                           cohort_minutes: int = 1) -> EventBatch:
    """Emit items whose observed states walk a known chain ``p1``.

    The harness requires width-1 novelty bins (ages map one-to-one onto
    novelty bins) so that age progression matches the chain's novelty
    structure exactly. The chain must move novelty bins forward one step
    at a time, never decrease the popularity bin, route all mass from
    the last novelty bin to state 0, and leave state 0 only toward
    novelty bin 1. Retweet counts per minute are the minimum counts
    consistent with each popularity-bin transition.

    Items are posted round-robin over ``cohort_minutes`` consecutive
    minutes starting at ``start_minute``. With a single cohort and an
    estimation window of [start_minute, start_minute + n_bins + 2) the
    estimator sees exactly the chain's transition frequencies,
    including the state-0 row.
    """
    bins = state_space.bins
    if n_items < 1:
        raise ConfigError("n_items must be >= 1")
    if cohort_minutes < 1:
        raise ConfigError("cohort_minutes must be >= 1")
    lim = bins.novelty_limits
    if any(b - a != 1 for a, b in zip(lim, lim[1:])) or lim[0] != 1:
        raise DataError(
            "markov streams need width-1 novelty bins starting at age 1 "
            f"(got limits {lim})"
        )
    n_nov = bins.n_novelty_bins
    n_pop = bins.n_popularity_bins
    n = state_space.n_states
    p1 = np.asarray(p1, dtype=float)
    if p1.shape != (n, n):
        raise DataError(f"p1 must be {n}x{n} for this state space")
    drift = np.abs(p1.sum(axis=1) - 1.0).max()
    if drift > 1e-12:
        raise DataError(f"p1 rows must sum to 1 (max drift {drift:.3e})")

    def nov_of(idx: int) -> int:
        return (idx - 1) // n_pop + 1

    def pop_of(idx: int) -> int:
        return (idx - 1) % n_pop + 1

    # Structural checks: the walk must be realizable by ages and counts.
    if p1[0, 0] != 0 or any(p1[0, j] > 0 and nov_of(j) != 1 for j in range(1, n)):
        raise DataError("state 0 must transition only into novelty bin 1")
    for i in range(1, n):
        row = np.flatnonzero(p1[i] > 0)
        if nov_of(i) == n_nov:
            if row.size != 1 or row[0] != 0:
                raise DataError(
                    f"state {i} is in the last novelty bin and must exit to state 0"
                )
            continue
        for j in row:
            if j == 0:
                raise DataError(f"state {i} may not exit early to state 0")
            if nov_of(j) != nov_of(i) + 1:
                raise DataError(
                    f"infeasible transition {i} -> {j}: novelty must advance by 1"
                )
            if pop_of(j) < pop_of(i):
                raise DataError(
                    f"infeasible transition {i} -> {j}: popularity bin decreases"
                )

    min_counts = np.array([0] + [_min_count_for_bin(bins, p) for p in range(1, n_pop + 1)])

    rng = np.random.default_rng(seed)
    cum = np.cumsum(p1, axis=1)
    states = np.zeros(n_items, dtype=int)
    paths = np.empty((n_nov, n_items), dtype=int)
    for age in range(n_nov):
        u = rng.random(n_items)
        rows = cum[states]
        states = (rows < u[:, None]).sum(axis=1)
        paths[age] = states

    # Retweets each item holds at each age (one row per age), the fewest
    # that its popularity bins need, and the ones emitted in that minute.
    held = min_counts[pop_of(paths)]
    emitted = np.diff(held, axis=0, prepend=0)
    if (emitted < 0).any():
        raise DataError("popularity bin decreased along a sampled walk")
    post_minute = start_minute + np.arange(n_items) % cohort_minutes
    # Every retweet, in item order and within an item in age order.
    item = np.repeat(np.repeat(np.arange(n_items), n_nov), emitted.T.ravel())
    minute = post_minute[item] + np.repeat(np.tile(np.arange(n_nov), n_items), emitted.T.ravel())
    ordinal = np.arange(item.size) - np.repeat(np.cumsum(held[-1]) - held[-1], held[-1])
    items = [f"m{i:06d}" for i in range(n_items)]
    retweeted = [items[i] for i in item.tolist()]
    return _sorted_batch([0] * n_items + [1] * item.size, items + retweeted,
                         items + [f"{i}-r{k}" for i, k in zip(retweeted, ordinal.tolist())],
                         (np.append(post_minute, minute) * 60).tolist(),
                         ["markov"] * (n_items + item.size))
