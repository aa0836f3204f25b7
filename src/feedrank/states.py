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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .events import MAX_TS, SECONDS_PER_MINUTE, ItemTable

DEFAULT_NOVELTY_LIMITS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 60)
DEFAULT_POPULARITY_BINS = 10
MAX_MINUTE = MAX_TS // SECONDS_PER_MINUTE

# The most states a bin grid may give: fit, sweep and model file are dense n x n.
MAX_STATES = 4096


@dataclass(frozen=True)
class BinSpec:
    """Bin limits for novelty (ages) and popularity (retweet counts).

    ``novelty_limits`` has one more entry than there are novelty bins;
    bin ``i`` covers ages ``[novelty_limits[i-1], novelty_limits[i] - 1]``
    (1-based bins). Ages outside the covered range map to state 0.

    ``popularity_limits`` is analogous for counts, non-strictly
    ascending, starting at 0 and terminated by an ``inf`` sentinel so
    every count >= 0 lands in some bin. When limits collapse (repeated
    values), classification picks the first bin whose range contains
    the count.
    """

    novelty_limits: tuple[int, ...]
    popularity_limits: tuple[float, ...]

    def __post_init__(self):
        nov = tuple(self.novelty_limits)
        pop = tuple(float(x) for x in self.popularity_limits)
        object.__setattr__(self, "novelty_limits", nov)
        object.__setattr__(self, "popularity_limits", pop)
        if len(nov) < 2:
            raise DataError("novelty_limits needs at least two entries")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in nov):
            raise DataError("novelty_limits must be integers")
        if nov[0] < 1:
            raise DataError("novelty_limits must start at age >= 1")
        if any(a >= b for a, b in zip(nov, nov[1:])):
            raise DataError("novelty_limits must be strictly ascending")
        if nov[-1] > MAX_MINUTE:
            raise DataError(f"novelty_limits must not exceed {MAX_MINUTE}")
        if len(pop) < 2:
            raise DataError("popularity_limits needs at least two entries")
        if pop[0] != 0:
            raise DataError("popularity_limits must start at 0")
        if pop[-1] != math.inf:
            raise DataError("popularity_limits must end with inf")
        if any(x == math.inf for x in pop[:-1]):
            raise DataError("only the final popularity limit may be inf")
        if any(x != int(x) or x < 0 for x in pop[:-1]):
            raise DataError("popularity_limits must be non-negative integers")
        if any(a > b for a, b in zip(pop, pop[1:])):
            raise DataError("popularity_limits must be non-strictly ascending")
        if self.n_states > MAX_STATES:
            raise DataError(f"the bins give {self.n_states} states, more than {MAX_STATES}")

    @property
    def n_novelty_bins(self) -> int:
        return len(self.novelty_limits) - 1

    @property
    def n_popularity_bins(self) -> int:
        return len(self.popularity_limits) - 1

    @property
    def n_states(self) -> int:
        return self.n_novelty_bins * self.n_popularity_bins + 1

    def novelty_bin(self, ages):
        """1-based novelty bin of each age, or 0 outside the window."""
        ages = np.asarray(ages)
        lim = self.novelty_limits
        inside = (ages >= lim[0]) & (ages <= lim[-1] - 1)
        return np.where(inside, np.searchsorted(lim, ages, side="right"), 0)

    def popularity_bin(self, counts):
        """1-based popularity bin containing each retweet count."""
        return np.searchsorted(self.popularity_limits, counts, side="right")


def classify(ages, counts, bins: BinSpec) -> np.ndarray:
    """State index of each item from its age and its retweets so far.

    ``ages`` and ``counts`` are equal-length arrays (or scalars); ages
    outside the novelty window, negative ones included, map to state 0.
    This is the one state classifier: callers pass every item-minute
    they need at once.
    """
    nb = bins.novelty_bin(ages)
    return np.where(nb > 0, (nb - 1) * bins.n_popularity_bins + bins.popularity_bin(counts), 0)


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
    nb = bins.novelty_bin(minutes - table.post_minute[rows])
    raw_n = np.bincount(nb, minlength=bins.n_novelty_bins + 1)[1:] / len(table)
    top_n = raw_n.max()
    if top_n <= 0:
        raise DataError("no retweets fall inside any novelty bin")
    r_n = tuple(float(v) for v in raw_n / top_n)

    final = np.bincount(rows, minlength=len(table))
    pb = bins.popularity_bin(final) - 1
    n_pop = bins.n_popularity_bins
    sums = np.bincount(pb, weights=final, minlength=n_pop)
    sizes = np.bincount(pb, minlength=n_pop)
    raw_p = np.divide(sums, sizes, out=np.zeros(n_pop), where=sizes > 0)
    raw_p[bins.popularity_bin(0) - 1] = 1.0
    r_p = tuple(float(v) for v in raw_p / raw_p.max())
    return r_n, r_p


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Bins plus fitted rewards, with the flat reward vector attached."""

    bins: BinSpec
    r_n: tuple[float, ...]
    r_p: tuple[float, ...]
    reward: np.ndarray

    @property
    def n_states(self) -> int:
        return self.bins.n_states

    def label(self, index: int) -> str:
        return state_label(index, self.bins)


def build_state_space(bins: BinSpec, r_n: Iterable[float],
                      r_p: Iterable[float]) -> StateSpace:
    r_n = tuple(float(v) for v in r_n)
    r_p = tuple(float(v) for v in r_p)
    if len(r_n) != bins.n_novelty_bins:
        raise DataError("r_n length does not match the novelty bin count")
    if len(r_p) != bins.n_popularity_bins:
        raise DataError("r_p length does not match the popularity bin count")
    if not all(0 <= v <= 1 for v in r_n + r_p):
        raise DataError("reward factors must lie in [0, 1]")
    reward = np.zeros(bins.n_states)
    n_pop = bins.n_popularity_bins
    for n in range(1, bins.n_novelty_bins + 1):
        for p in range(1, n_pop + 1):
            reward[(n - 1) * n_pop + p] = r_n[n - 1] * r_p[p - 1]
    return StateSpace(bins=bins, r_n=r_n, r_p=r_p, reward=reward)
