"""Seeded synthetic event streams shaped like a news-feed corpus.

``generate_stream`` produces posts with heavy-tailed retweet totals, a
sharp early engagement peak with power-law decay, a diurnal posting
profile, and lighter weekends. All retweets land inside the display
window (within an hour of the post).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import GeneratorConfig
from .errors import DataError
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
# Events whose id and account strings ``_sorted_batch`` builds together.
_CHUNK = 1 << 14


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
    del cells, sizes, first_users, seconds
    # Every event as indices into the lists of item names, event-id
    # suffixes and accounts: the posts first, then the engagement.
    n_users = int(user.max(initial=-1)) + 1
    name_of = np.append(np.arange(n_items, dtype=np.int32), item.astype(np.int32))
    suffix_of = np.append(np.zeros(n_items, np.int32),
                          (1 + code * n_users + user).astype(np.int32))
    account_of = np.append(post_account, config.n_accounts + user).astype(np.int32)
    kinds = np.append(np.zeros(n_items, np.int8), (code + 1).astype(np.int8))
    stamps = np.append(post_ts, stamps)
    del code, item, user
    return _sorted_batch(
        kinds, stamps, [f"t{i:06d}" for i in range(n_items)], name_of,
        [""] + [f"-{tag}{u}" for tag in "rpf" for u in range(n_users)], suffix_of,
        [f"acct{a:02d}" for a in range(config.n_accounts)] + [f"user{u}" for u in range(n_users)],
        account_of)


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


def _rank(strings: Sequence[str]) -> np.ndarray:
    """The place of each of the distinct ``strings`` in their sorted order."""
    rank = np.empty(len(strings), dtype=np.int32)
    rank[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return rank


def _sorted_batch(kinds, stamps, names: Sequence[str], name_of, suffixes: Sequence[str],
                  suffix_of, accounts: Sequence[str], account_of) -> EventBatch:
    """The batch of these events sorted by (ts, post first, item_id, event_id).

    Event ``i`` has item id ``names[name_of[i]]``, event id
    ``names[name_of[i]] + suffixes[suffix_of[i]]`` and account
    ``accounts[account_of[i]]``, from lists of distinct strings. The sort
    compares the names' and suffixes' ranks in Python string order, and
    sorts arrays already of the column dtypes in place, holding no second
    copy. The strings are joined after the sort, a chunk at a time.
    """
    kinds = np.asarray(kinds, dtype=np.int8)
    stamps = np.asarray(stamps, dtype=np.int64)
    name_of, suffix_of, account_of = (np.asarray(a, dtype=np.int32)
                                      for a in (name_of, suffix_of, account_of))
    order = np.lexsort((_rank(suffixes)[suffix_of], _rank(names)[name_of], kinds != 0, stamps))
    for column in (kinds, stamps, name_of, suffix_of, account_of):
        column[:] = column[order]
    del order
    n = kinds.size
    item_id, event_id, account = [""] * n, [""] * n, [""] * n
    for lo in range(0, n, _CHUNK):
        at = slice(lo, lo + _CHUNK)
        item_id[at] = chunk = list(map(names.__getitem__, name_of[at].tolist()))
        event_id[at] = map(str.__add__, chunk, map(suffixes.__getitem__, suffix_of[at].tolist()))
        account[at] = map(accounts.__getitem__, account_of[at].tolist())
    return EventBatch(kinds, item_id, event_id, stamps, account)
