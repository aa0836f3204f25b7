"""Estimating the displayed-state Markov chain and its slowed twin.

``p1`` is the per-minute transition matrix items follow while displayed.
The non-displayed matrix ``p0`` is derived from it with a slowdown
factor ``epsilon``, one number in the pipeline or one per state here:
with probability ``1 - epsilon[i]`` the item stays put, otherwise it
moves per ``p1``. Concretely

    p0[i][j] = epsilon[i] * p1[i][j]                   for j != i
    p0[i][i] = (1 - epsilon[i]) + epsilon[i] * p1[i][i]

which preserves row sums exactly. ``epsilon = 1`` makes both speeds
identical and ``epsilon = 0`` freezes non-displayed items.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BETA, DEFAULT_EPSILON, MAX_SMOOTHING, BinSpec
from .errors import DataError
from .events import ItemTable
from .states import classify

ROW_SUM_TOL = 1e-12


def estimate_p1(table: ItemTable, bins: BinSpec, window: tuple[int, int], *,
                smoothing: float = 0.0) -> np.ndarray:
    """Estimate ``p1`` by counting per-minute state transitions.

    Every item contributes one transition for each minute ``t`` with
    ``t`` and ``t + 1`` inside ``window`` (a half-open minute range):
    the pair (state at t, state at t+1). Items outside their display
    window sit in state 0, so an item entering the window leaves state
    0 for a novelty-1 state, an item aging out returns to state 0, and
    every other out-of-window minute is a 0 -> 0 self-loop.

    Rows with no observed transitions get a self-loop of probability 1.
    ``smoothing`` > 0 adds that value to every cell before normalizing
    (useful for sparse corpora; off by default).
    """
    start, end = window
    if end - start < 2:
        raise DataError(f"training window [{start}, {end}) is too short to observe transitions")
    if not 0 <= smoothing <= MAX_SMOOTHING:
        raise DataError(f"smoothing must lie in 0..{MAX_SMOOTHING:g}")
    post = table.post_minute
    if not ((start <= post) & (post < end)).any():
        raise DataError(f"training window [{start}, {end}) contains no posts")

    # Each item's transitions can touch a non-zero state only from
    # minute lo to minute hi; every other minute in the window is a
    # 0 -> 0 loop. Clamping the window to the table's minutes changes
    # no lo or hi and keeps the arithmetic inside int64.
    max_age = bins.novelty_limits[-1] - 1
    floor, ceil = int(post.min()), int(post.max()) + max_age + 2
    lo = np.maximum(post, min(max(start, floor), ceil))
    hi = np.minimum(post + max_age, min(max(end, floor), ceil) - 2)
    steps = np.maximum(hi - lo + 1, 0)
    # One entry per transition: item ``rows[k]`` moves from minute
    # ``t[k]`` to ``t[k] + 1``, with t running lo..hi in each item's block.
    rows = np.repeat(np.arange(len(table)), steps)
    t = np.arange(rows.size) - np.repeat(np.cumsum(steps) - steps - lo, steps)
    pairs = t[:, None] + (0, 1)
    states = classify(pairs - post[rows, None],
                      table.count("retweet", rows[:, None], 0, pairs), bins)
    n = bins.n_states
    counts = np.zeros((n, n))
    np.add.at(counts, (states[:, 0], states[:, 1]), 1.0)
    counts[0, 0] += len(table) * (end - start - 1) - int(steps.sum())

    if smoothing > 0:
        counts += smoothing
    totals = counts.sum(axis=1)
    p1 = np.zeros_like(counts)
    observed = totals > 0
    p1[observed] = counts[observed] / totals[observed, None]
    for i in np.flatnonzero(~observed):
        p1[i, i] = 1.0
    return p1


def derive_p0(p1: np.ndarray, epsilon) -> np.ndarray:
    """Build the non-displayed matrix from ``p1`` and slowdown factors.

    ``epsilon`` may be a scalar or a per-state vector, entries in [0, 1].
    """
    p1 = np.asarray(p1, dtype=float)
    n = p1.shape[0]
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim == 0:
        eps = np.full(n, float(eps))
    if eps.shape != (n,):
        raise DataError(f"epsilon must be a scalar or a vector of length {n}")
    if not np.all((0 <= eps) & (eps <= 1)):
        raise DataError("epsilon entries must lie in [0, 1]")
    p0 = eps[:, None] * p1
    diag = np.arange(n)
    p0[diag, diag] = (1.0 - eps) + eps * p1[diag, diag]
    return p0


@dataclass(eq=False)
class TransitionModel:
    """Displayed/non-displayed transition matrices with the discount.

    ``build_model`` derives ``p0`` from ``p1`` and ``epsilon``. The
    discount ``beta`` lies in (0, 1), which every occupancy solve needs.
    """

    p1: np.ndarray
    p0: np.ndarray
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        self.p1 = np.asarray(self.p1, dtype=float)
        self.p0 = np.asarray(self.p0, dtype=float)
        n = self.p1.shape[0]
        for name, mat in (("p1", self.p1), ("p0", self.p0)):
            if mat.shape != (n, n):
                raise DataError(f"{name} must be square with matching size")
            if not np.all((0 <= mat) & (mat <= 1)):
                raise DataError(f"{name} entries must lie in [0, 1]")
            drift = np.abs(mat.sum(axis=1) - 1.0).max()
            if not drift <= ROW_SUM_TOL:
                raise DataError(f"{name} rows must sum to 1 (max drift {drift:.3e})")
        if not 0 < self.beta < 1:
            raise DataError("beta must lie in (0, 1)")

    @property
    def n_states(self) -> int:
        return self.p1.shape[0]


def build_model(p1: np.ndarray, epsilon=DEFAULT_EPSILON,
                beta: float = DEFAULT_BETA) -> TransitionModel:
    """Derive ``p0`` from ``p1`` and wrap everything in a model."""
    return TransitionModel(p1=p1, p0=derive_p0(p1, epsilon), beta=beta)
