"""Discrete item state space: novelty/popularity bins and rewards.

An item's state at decision minute ``t`` is a (novelty bin, popularity
bin) pair, or the out-of-window state 0. Novelty bins partition item
ages (minutes since posting); popularity bins partition cumulative
retweet counts. With ``n`` novelty bins and ``m`` popularity bins the
state space has ``n * m + 1`` members, indexed

    0                         out of window (reward 0)
    m * (novelty - 1) + pop    in-window states, 1-based bins

Per-bin reward factors ``r_n`` and ``r_p`` are fitted from a training
corpus and combined multiplicatively: reward(n, p) = r_n[n] * r_p[p].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import DEFAULT_POPULARITY_BINS, BinSpec
from .errors import DataError

if TYPE_CHECKING:
    from .events import ItemTable


def novelty_bin(ages, bins: BinSpec) -> np.ndarray:
    """1-based novelty bin of each age, or 0 outside the window."""
    ages = np.asarray(ages)
    lim = bins.novelty_limits
    inside = (ages >= lim[0]) & (ages <= lim[-1] - 1)
    return np.where(inside, np.searchsorted(lim, ages, side="right"), 0)


def popularity_bin(counts, bins: BinSpec) -> np.ndarray:
    """1-based popularity bin containing each retweet count."""
    return np.searchsorted(bins.popularity_limits, counts, side="right")


def classify(ages, counts, bins: BinSpec) -> np.ndarray:
    """State index of each item from its age and its retweets so far.

    ``ages`` and ``counts`` are equal-length arrays (or scalars); ages
    outside the novelty window, negative ones included, map to state 0.
    This is the one state classifier: callers pass every item-minute
    they need at once.
    """
    nb = novelty_bin(ages, bins)
    return np.where(nb > 0, (nb - 1) * bins.n_popularity_bins + popularity_bin(counts, bins), 0)


def state_bins(index: int, bins: BinSpec) -> tuple[int, int]:
    """Invert the state index to a (novelty, popularity) bin pair."""
    if index <= 0 or index >= bins.n_states:
        raise ValueError(f"state {index} is not an in-window state")
    n, p = divmod(index - 1, bins.n_popularity_bins)
    return n + 1, p + 1


def state_label(index: int, bins: BinSpec) -> str:
    if index == 0:
        return "0"
    n, p = state_bins(index, bins)
    return f"({n},{p})"


def fit_popularity_bins(final_counts: Sequence[int],
                        n_bins: int = DEFAULT_POPULARITY_BINS) -> tuple[float, ...]:
    """Fit popularity bin limits from final retweet counts.

    Bin 1 is reserved for zero-count items. Items with at least one
    retweet are split into ``n_bins - 1`` equal-frequency groups by
    sorted count; each group's smallest count becomes the lower limit
    of its bin. Repeated boundary values are kept, collapsing bins.
    """
    if n_bins < 2:
        raise DataError("n_bins must be >= 2")
    counts = np.asarray(final_counts)
    if not counts.size:
        raise DataError("cannot fit popularity bins from an empty corpus")
    if (counts < 0).any():
        raise DataError("retweet counts must be non-negative")
    nonzero = np.sort(counts[counts > 0])
    m = len(nonzero)
    if m == 0:
        raise DataError("degenerate popularity distribution: every count is zero")
    groups = n_bins - 1
    limits: list[float] = [0.0]
    for k in range(groups):
        start = -((-k * m) // groups)  # ceil(k * m / groups)
        limits.append(float(nonzero[min(start, m - 1)]))
    limits.append(math.inf)
    return tuple(limits)


def fit_rewards(table: ItemTable,
                bins: BinSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fit per-bin reward factors from a training corpus.

    ``r_n[i]`` is the mean number of retweets a tweet receives while its
    age is inside novelty bin ``i``, normalized by the maximum over
    bins. ``r_p[j]`` is the mean final retweet count of the tweets whose
    final count falls in popularity bin ``j``, also max-normalized; the
    zero-count bin is assigned an average of 1 before normalization.
    """
    if not len(table):
        raise DataError("cannot fit rewards from an empty corpus")

    rows, minutes = table.events("retweet")
    nb = novelty_bin(minutes - table.post_minute[rows], bins)
    raw_n = np.bincount(nb, minlength=bins.n_novelty_bins + 1)[1:] / len(table)
    top_n = raw_n.max()
    if top_n <= 0:
        raise DataError("no retweets fall inside any novelty bin")
    r_n = tuple(float(v) for v in raw_n / top_n)

    final = np.bincount(rows, minlength=len(table))
    pb = popularity_bin(final, bins) - 1
    n_pop = bins.n_popularity_bins
    sums = np.bincount(pb, weights=final, minlength=n_pop)
    sizes = np.bincount(pb, minlength=n_pop)
    raw_p = np.divide(sums, sizes, out=np.zeros(n_pop), where=sizes > 0)
    raw_p[popularity_bin(0, bins) - 1] = 1.0
    r_p = tuple(float(v) for v in raw_p / raw_p.max())
    return r_n, r_p


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Bins plus fitted reward factors, checked when built.

    ``reward`` is derived: 0 for state 0, and ``r_n[n-1] * r_p[p-1]`` for
    the state ``classify`` numbers (n, p).
    """

    bins: BinSpec
    r_n: tuple[float, ...]
    r_p: tuple[float, ...]
    reward: np.ndarray = field(init=False)

    def __post_init__(self):
        r_n = tuple(float(v) for v in self.r_n)
        r_p = tuple(float(v) for v in self.r_p)
        if len(r_n) != self.bins.n_novelty_bins:
            raise DataError("r_n length does not match the novelty bin count")
        if len(r_p) != self.bins.n_popularity_bins:
            raise DataError("r_p length does not match the popularity bin count")
        if not all(0 <= v <= 1 for v in r_n + r_p):
            raise DataError("reward factors must lie in [0, 1]")
        object.__setattr__(self, "r_n", r_n)
        object.__setattr__(self, "r_p", r_p)
        # Row n - 1 of the outer product holds novelty bin n, in classify's order.
        object.__setattr__(self, "reward", np.concatenate([[0.0], np.outer(r_n, r_p).ravel()]))

    def label(self, index: int) -> str:
        return state_label(index, self.bins)
