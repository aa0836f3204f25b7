"""Seeded synthetic event streams shaped like a news-feed corpus.

``generate_stream`` produces posts with heavy-tailed retweet totals, a
sharp early engagement peak with power-law decay, a diurnal posting
profile, and lighter weekends. All retweets land inside the display
window (within an hour of the post).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, DataError
from .events import EventBatch

# UTC hours whose posts ``peak_magnitude_scale`` boosts.
PEAK_HOURS = (12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 0, 1)

# Hour-of-day posting weights, UTC, peaking between 12:00 and 02:00.
DIURNAL_WEIGHTS = (
    1.0, 1.0, 0.45, 0.3, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.5,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
)

# Monday..Sunday activity factors; weekends post less, Sunday least.
WEEKDAY_FACTORS = (1.0, 1.0, 1.0, 1.0, 1.0, 0.8, 0.65)

_SECONDS_PER_DAY = 86400

# Bounds the mean post count, the account-days the loop visits and
# ``magnitude_cap``, whose CDF table holds three float arrays that long.
MAX_POSTS = 2**20


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic stream.

    ``posts_per_day`` is the weekday mean per account; day 0 is the
    epoch's Thursday, and ``WEEKDAY_FACTORS`` and ``DIURNAL_WEIGHTS``
    shape the week and the day. Retweet totals mix a point mass at zero
    with a discrete power law of exponent ``alpha`` starting at
    ``x_min``. A tweet's retweets spread over minute offsets 1..59 after
    the post with explicit weights for the first three minutes (the
    empirical peak sits at minutes 2 and 3) and a ``offset^-gamma`` tail
    after them, each tweet's weights jittered by a log-normal factor of
    sigma 0.35. Each minute's replies and favorites are thinned from its
    retweets with probabilities 0.3 and 0.2.
    """

    seed: int = 1
    n_accounts: int = 5
    days: int = 14
    posts_per_day: float = 40.0
    alpha: float = 2.3
    x_min: int = 1
    zero_fraction: float = 0.15
    gamma: float = 1.0
    early_weights: tuple[float, float, float] = (0.55, 1.0, 0.92)
    peak_magnitude_scale: float = 1.0
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.n_accounts < 1 or self.days < 1:
            raise ConfigError("need at least one account and one day")
        if self.posts_per_day < 0:
            raise ConfigError("posts_per_day must be >= 0")
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
        if self.peak_magnitude_scale <= 0:
            raise ConfigError("peak_magnitude_scale must be positive")
        if self.magnitude_cap < self.x_min:
            raise ConfigError("magnitude_cap must be >= x_min")
        if self.days * self.n_accounts > MAX_POSTS:  # exact ints before the float product
            raise ConfigError(f"days x n_accounts must not exceed {MAX_POSTS}")
        if self.days * self.n_accounts * self.posts_per_day > MAX_POSTS:
            raise ConfigError(f"days x n_accounts x posts_per_day must not exceed {MAX_POSTS}")
        if self.magnitude_cap > MAX_POSTS:
            raise ConfigError(f"magnitude_cap must not exceed {MAX_POSTS}")


def _power_law_cdf(alpha: float, x_min: int, cap: int) -> np.ndarray:
    xs = np.arange(x_min, cap + 1, dtype=float)
    pmf = xs ** (-alpha)
    cdf = np.cumsum(pmf)
    return cdf / cdf[-1]


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
    diurnal = np.asarray(DIURNAL_WEIGHTS, dtype=float)
    diurnal = diurnal / diurnal.sum()
    decay = _decay_weights(config)
    cdf = _power_law_cdf(config.alpha, config.x_min, config.magnitude_cap)

    # The loop only draws. It keeps the post stamps and accounts, the
    # seconds of every retweet, and each account-day's nonzero cells: one
    # cell per (item, kind, minute offset), numbered over all items, with
    # its event count and the number of its first user. One call draws
    # all of an item's seconds, in offset order: numpy draws each bounded
    # integer below 2**32 from one 32-bit output, so this is the stream
    # that one call per minute offset draws.
    post_ts, post_account, seconds, cells, sizes, first_users = [], [], [], [], [], []
    n_items = 0
    for day in range(config.days):
        day_rate = config.posts_per_day * WEEKDAY_FACTORS[_weekday(day)]
        for acct in range(config.n_accounts):
            n_posts = int(rng.poisson(day_rate))
            if n_posts == 0:
                continue
            hours = rng.choice(24, size=n_posts, p=diurnal)
            post_ts.append(day * _SECONDS_PER_DAY + hours * 3600
                           + rng.integers(0, 3600, size=n_posts))
            post_account += [acct] * n_posts
            # Retweets, replies and favorites of each item at each offset.
            drawn = np.zeros((n_posts, 3, decay.size), dtype=np.int64)
            for k, hour in enumerate(hours.tolist()):
                if rng.random() < config.zero_fraction:
                    continue
                magnitude = int(config.x_min + cdf.searchsorted(rng.random()))
                if config.peak_magnitude_scale != 1.0 and hour in PEAK_HOURS:
                    magnitude = max(
                        config.x_min,
                        int(round(magnitude * config.peak_magnitude_scale)),
                    )
                weights = decay * rng.lognormal(0.0, 0.35, size=decay.size)
                per_minute = rng.multinomial(magnitude, weights / weights.sum())
                drawn[k] = (per_minute, rng.binomial(per_minute, 0.3),
                            rng.binomial(per_minute, 0.2))
                seconds += rng.integers(0, 60, size=magnitude).tolist()
            # The j-th retweet, reply and favorite of a minute share user
            # j, and an item's users are numbered on from minute to minute.
            first_user = np.cumsum(drawn[:, :1], axis=2) - drawn[:, :1]
            nonzero = np.flatnonzero(drawn)
            cells.append(nonzero + n_items * drawn[0].size)
            sizes.append(drawn.ravel()[nonzero])
            first_users.append(np.broadcast_to(first_user, drawn.shape).ravel()[nonzero])
            n_items += n_posts
    if n_items == 0:
        raise DataError("generator produced no posts; raise posts_per_day or days")

    post_ts = np.concatenate(post_ts)
    code, item, user, stamps = _engagement(np.concatenate(cells), np.concatenate(sizes),
                                           np.concatenate(first_users), decay.size, post_ts)
    # The retweets come in the order of the loop that drew their seconds.
    stamps[code == 0] += np.asarray(seconds, dtype=np.int64)
    names = [f"t{i:06d}" for i in range(n_items)]
    owners = [f"acct{a:02d}" for a in range(config.n_accounts)]
    n_users = int(user.max(initial=-1)) + 1
    users = [f"user{u}" for u in range(n_users)]
    suffixes = [f"-{tag}{u}" for tag in "rpf" for u in range(n_users)]
    item_ids = list(map(names.__getitem__, item.tolist()))
    event_ids = map(str.__add__, item_ids,
                    map(suffixes.__getitem__, (code * n_users + user).tolist()))
    return _sorted_batch(np.append(np.zeros(n_items, np.int64), code + 1), names + item_ids,
                         names + list(event_ids), np.append(post_ts, stamps),
                         list(map(owners.__getitem__, post_account))
                         + list(map(users.__getitem__, user.tolist())))


def _engagement(cells, sizes, first_users, n_offsets, post_ts):
    """The kind (0-2 for retweet, reply, favorite), item, user and minute
    stamp of every event of the cells, in cell order.

    A function of its own so that its event-sized temporaries are freed
    before the sort.
    """
    at = np.repeat(np.arange(cells.size), sizes)
    item, code_off = np.divmod(cells[at], 3 * n_offsets)
    code, off = np.divmod(code_off, n_offsets)
    user = first_users[at] + np.arange(at.size) - (np.cumsum(sizes) - sizes)[at]
    return code, item, user, (post_ts[item] // 60 + off + 1) * 60


def _sorted_batch(kinds, item_ids, event_ids, stamps, accounts) -> EventBatch:
    """The batch of these columns, sorted by (ts, post first, item_id, event_id).

    The ids are compared as numpy strings, which ignore trailing NULs;
    no generated id holds one.
    """
    kinds = np.asarray(kinds, dtype=np.int8)
    stamps = np.asarray(stamps, dtype=np.int64)
    order = np.lexsort((np.array(event_ids), np.array(item_ids), kinds != 0, stamps))
    column = [np.array(ids, dtype=object)[order].tolist()
              for ids in (item_ids, event_ids, accounts)]
    return EventBatch(kinds[order], column[0], column[1], stamps[order], column[2])
