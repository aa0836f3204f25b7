"""Samplers with a known answer, for testing the estimators.

``sample_power_law`` draws retweet totals of a known exponent;
``generate_markov_stream`` emits items that walk a known state chain,
which makes it a ground truth for the transition estimator.
"""

import numpy as np

from feedrank.errors import ConfigError, DataError
from feedrank.events import EventBatch
from feedrank.states import StateSpace, popularity_bin
from feedrank.synth import _power_law_cdf, _sorted_batch


def sample_power_law(rng: np.random.Generator, alpha: float, x_min: int,
                     size: int, cap: int = 1_000_000) -> np.ndarray:
    """Draw from a discrete power law P(X = x) ~ x^-alpha, x >= x_min.

    Exact inverse-CDF sampling on the support truncated at ``cap``; the
    truncated tail mass is negligible for the exponents used here.
    """
    cdf = _power_law_cdf(alpha, x_min, cap)
    idx = np.searchsorted(cdf, rng.random(size), side="left")
    return x_min + idx


def _min_count_for_bin(bins, p: int) -> int:
    """Smallest retweet count classified into popularity bin ``p``."""
    candidate = int(bins.popularity_limits[p - 1])
    if popularity_bin(candidate, bins) != p:
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
    n = state_space.bins.n_states
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
    return _sorted_batch([0] * n_items + [1] * item.size,
                         (np.append(post_minute, minute) * 60).tolist(),
                         [f"m{i:06d}" for i in range(n_items)], np.append(np.arange(n_items), item),
                         [""] + [f"-r{k}" for k in range(ordinal.max(initial=-1) + 1)],
                         np.append(np.zeros(n_items, int), ordinal + 1),
                         ["markov"], np.zeros(n_items + item.size, int))
