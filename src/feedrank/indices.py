"""Priority indices for dual-speed restless bandits.

Computes a priority index G for every state via the adaptive-greedy
construction of Bertsimas and Nino-Mora: states are extracted one at a
time, highest index first, and each step needs the discounted
occupancy times of the states extracted so far.

For an active set S, the occupancy vector V solves the linear system

    V[i] = 1 + beta * sum_j p1[i][j] * V[j]    for i in S
    V[i] =     beta * sum_j p0[i][j] * V[j]    for i not in S

i.e. the expected discounted number of visits to S when items inside S
move at display speed and items outside move at the slowed speed. The
normalizing constants for a set S are

    A[i] = 1 + beta * sum_j (p1[i][j] - p0[i][j]) * V_comp[j]

with V_comp the occupancy of the complement of S. The greedy sweep
starts from the full state set (where A is identically 1), extracts the
maximizer of (adjusted reward) / A, and accumulates G as partial sums
of the extracted ratios. Both ``occupancy`` and the sweep solve the
system through ``_OccupancySystem``, which the sweep keeps solved from
one extraction to the next by rank-one updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IndexabilityError, NumericalError
from .transitions import TransitionModel

RESIDUAL_TOL_FACTOR = 1e-10
_MAX_REFINEMENTS = 2
# Pending rank-one terms of the sweep's inverse before one einsum folds them in.
_BLOCK = 32


def _as_mask(active: Iterable[int] | np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    if isinstance(active, np.ndarray) and active.dtype == bool:
        if active.shape != (n,):
            raise ValueError(f"boolean mask must have length {n}")
        return active.copy()
    for i in active:
        if not 0 <= int(i) < n:
            raise ValueError(f"state {i} is out of range for {n} states")
        mask[int(i)] = True
    return mask


class _OccupancySystem:
    """The occupancy system ``M v = b``, ``M = I - beta * P``, kept solved.

    Row ``s`` of the chain ``P`` is ``p1[s]`` for a state in the
    occupancy set and ``p0[s]`` for one outside it. ``set_row`` changes
    one row and follows it with a Sherman-Morrison rank-one update of
    the inverse, the fast-pivoting scheme of Nino-Mora (INFORMS J.
    Computing, 2007); ``_factor`` builds the inverse from ``I``'s by the
    same update, one row of ``M`` at a time. Every matrix on the way is
    strictly diagonally dominant by rows (margin ``1 - beta``), so no
    pivot is zero. The inverse is held as ``base - cols[:k].T @ rows[:k]``
    with ``k < _BLOCK`` pending terms, which ``solve`` applies with two
    thin products; every ``_BLOCK`` updates an ``einsum`` (no BLAS) folds
    them into ``base``, so the inverse has the same bits on any BLAS
    thread count. ``solve`` checks ``||b - M v||_inf`` against
    ``RESIDUAL_TOL_FACTOR / (1 - beta)``; past it, up to
    ``_MAX_REFINEMENTS`` refinements run, then ``_factor`` rebuilds the
    inverse, and if that also fails ``NumericalError`` is raised.

    Its health record is that of ``SweepStats``, with ``min_pivot`` taken
    over the ``set_row`` updates only.
    """

    def __init__(self, p: np.ndarray, beta: float):
        n = len(p)
        self.beta = beta
        self.tol = RESIDUAL_TOL_FACTOR / (1.0 - beta)
        self.m = np.eye(n) - beta * p
        self.cols, self.rows = np.empty((_BLOCK, n)), np.empty((_BLOCK, n))
        self.min_pivot, self.max_residual = np.inf, 0.0
        self.refinements = self.refactorizations = 0
        self._factor()

    def _factor(self) -> None:
        """Build the inverse of ``M`` from ``I``'s by one update per row, then fold it."""
        target, n = self.m, len(self.m)
        self.m, self.base, self.pending = np.eye(n), np.eye(n), 0
        for s, row in enumerate(target):
            self._replace(s, row)
        self._fold()

    def _fold(self) -> None:
        self.base -= np.einsum("ki,kj->ij", self.cols[:self.pending], self.rows[:self.pending])
        self.pending = 0

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """``inv(M) @ x``."""
        return self.base @ x - self.cols[:self.pending].T @ (self.rows[:self.pending] @ x)

    def _replace(self, s: int, row: np.ndarray) -> float:
        """Make ``row`` row ``s`` of ``M``, update the inverse and return ``|pivot|``."""
        u = row - self.m[s]
        # An unchanged row (equal p1 and p0 rows: absorbing, or epsilon 1) needs no update.
        if not u.any():
            return np.inf
        self.m[s] = row
        k = self.pending
        cols, rows = self.cols[:k], self.rows[:k]
        w = u @ self.base - (cols @ u) @ rows
        pivot = 1.0 + w[s]
        self.cols[k], self.rows[k] = (self.base[:, s] - rows[:, s] @ cols) / pivot, w
        self.pending = k + 1
        if self.pending == _BLOCK:
            self._fold()
        return abs(float(pivot))

    def set_row(self, s: int, p_row: np.ndarray) -> None:
        """Make ``p_row`` row ``s`` of ``P``, so ``M[s] = e_s - beta * p_row``."""
        row = -self.beta * p_row
        row[s] += 1.0
        self.min_pivot = min(self.min_pivot, self._replace(s, row))

    def _refine(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """``v`` with the current inverse, refined while its residual
        exceeds the tolerance, and the residual of the returned ``v``."""
        v = self._apply(b)
        residual = b - self.m @ v
        for _ in range(_MAX_REFINEMENTS):
            if np.abs(residual).max() <= self.tol:
                break
            v = v + self._apply(residual)
            residual = b - self.m @ v
            self.refinements += 1
        return v, float(np.abs(residual).max())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``v`` with ``M v = b`` within the tolerance, or ``NumericalError``."""
        v, residual = self._refine(b)
        if not residual <= self.tol:  # a nan residual fails too
            self._factor()
            self.refactorizations += 1
            v, residual = self._refine(b)
            if not residual <= self.tol:
                raise NumericalError(
                    f"occupancy residual {residual:.3e} exceeds tolerance {self.tol:.3e}")
        self.max_residual = max(self.max_residual, residual)
        return v


def occupancy(active: Iterable[int] | np.ndarray, model: TransitionModel) -> np.ndarray:
    """Discounted occupancy times of ``active`` from every start state.

    Raises ``NumericalError`` if the residual stays above
    ``1e-10 / (1 - beta)`` (see ``_OccupancySystem``).
    """
    mask = _as_mask(active, model.n_states)
    system = _OccupancySystem(np.where(mask[:, None], model.p1, model.p0), model.beta)
    return system.solve(mask.astype(float))


def _constants(diff: np.ndarray, beta: float, v_comp: np.ndarray) -> np.ndarray:
    """``A = 1 + beta * (p1 - p0) V_comp`` with ``diff = p1 - p0``."""
    return 1.0 + beta * (diff @ v_comp)


def constants_a(active: Iterable[int] | np.ndarray, model: TransitionModel) -> np.ndarray:
    """Normalizing constants A for the active set, one per state."""
    n = model.n_states
    mask = _as_mask(active, n)
    return _constants(model.p1 - model.p0, model.beta, occupancy(~mask, model))


@dataclass(frozen=True, eq=False)
class SweepStats:
    """Extraction trace and numerical health of one adaptive-greedy sweep.

    ``pi_order[k]`` is the state extracted at step ``k`` (highest index
    first) and ``y_values[k]`` the ratio extracted with it; the sweep
    derives ``g`` from them, so ``g[pi_order] == cumsum(y_values)`` exactly.
    ``min_a`` is the smallest constant A of a state still in the active
    set, over every step (the margin of the indexability condition
    A > 0), found at ``min_a_state`` in step ``min_a_step``. With a
    dual-speed ``p0`` every such A is at least 1 up to rounding (the
    slowed chain keeps ``V[i] <= p1[i] . V`` outside the occupancy set),
    so ``min_a`` falls clearly below 1 only for other models.
    ``min_pivot``, ``max_residual``, ``refinements`` and
    ``refactorizations`` are the health record of the sweep's occupancy
    system: the smallest Sherman-Morrison pivot of an extraction that
    changes it (inf if none does), the largest residual accepted at any
    step, the refinement passes and the rebuilds after the first.
    """

    pi_order: np.ndarray
    y_values: np.ndarray
    min_a: float
    min_a_state: int
    min_a_step: int
    min_pivot: float
    max_residual: float
    refinements: int
    refactorizations: int

    def describe(self) -> str:
        """One line for the output of ``feedrank indices``."""
        return (f"sweep: smallest A = {self.min_a:.6g} (state {self.min_a_state}, "
                f"step {self.min_a_step}), smallest pivot = {self.min_pivot:.6g}, "
                f"largest residual = {self.max_residual:.3g}, {self.refinements} "
                f"refinements, {self.refactorizations} refactorizations")


@dataclass(eq=False)
class IndexTable:
    """Priority index ``g`` per state.

    ``sweep`` holds the sweep's trace and diagnostics when the table was
    computed in this process rather than read from a model file.
    """

    g: np.ndarray
    sweep: SweepStats | None = None


def compute_indices(model: TransitionModel, rewards: Sequence[float]) -> IndexTable:
    """Run the adaptive-greedy sweep and return the index table.

    The sweep owns one ``_OccupancySystem`` for the set of states
    extracted so far, which starts empty (``P = p0``, ``b = 0``).
    Extracting a state makes its row of ``P`` the ``p1`` row and sets
    ``b[s] = 1``: one ``set_row`` and one ``solve`` per step. The
    maximization breaks exact ties by lowest state index. Raises
    ``IndexabilityError`` if a normalizing constant is not strictly
    positive when it is needed, and ``NumericalError`` if a solve fails.
    """
    r = np.asarray(rewards, dtype=float)
    n = model.n_states
    if r.shape != (n,):
        raise ValueError(f"rewards must have length {n}")
    beta = model.beta

    diff = model.p1 - model.p0
    system = _OccupancySystem(model.p0, beta)  # no state extracted yet
    v = np.zeros(n)
    remaining = np.ones(n, dtype=bool)
    adjust = np.zeros(n)
    pi_order = np.empty(n, dtype=int)
    y_values = np.empty(n)
    min_a = (np.inf, 0, 0)

    for step in range(n):
        a = _constants(diff, beta, v)
        members = np.flatnonzero(remaining)
        a_members = a[members]
        low = int(np.argmin(a_members))
        if a_members[low] < min_a[0]:
            min_a = (float(a_members[low]), int(members[low]), step)
        bad = np.flatnonzero(a_members <= 0)
        if bad.size:
            raise IndexabilityError(
                state=int(members[bad[0]]),
                active_set=members.tolist(),
                value=float(a_members[bad[0]]),
            )
        ratios = (r[members] - adjust[members]) / a_members
        pick = int(np.argmax(ratios))  # first maximum: lowest state index
        state = int(members[pick])
        y = float(ratios[pick])
        pi_order[step] = state
        y_values[step] = y
        adjust += a * y
        remaining[state] = False
        if step == n - 1:
            break
        system.set_row(state, model.p1[state])
        v = system.solve((~remaining).astype(float))  # b: the extracted set

    g = np.empty(n)
    g[pi_order] = np.cumsum(y_values)
    return IndexTable(g=g, sweep=SweepStats(
        pi_order, y_values, *min_a, system.min_pivot, system.max_residual,
        system.refinements, system.refactorizations))


def rank_states(g: np.ndarray) -> list[int]:
    """States sorted by descending index ``g``, ties broken by lowest index."""
    return np.argsort(-g, kind="stable").tolist()


def format_rank_grid(g: np.ndarray, bins) -> str:
    """Human-readable grid of state ranks (1 = highest priority).

    Rows are popularity bins from highest to lowest, columns novelty
    bins from newest to oldest, with the out-of-window state listed
    separately.
    """
    rank = np.empty(bins.n_states, dtype=int)
    rank[rank_states(g)] = np.arange(1, bins.n_states + 1)
    # In classify's numbering, row n - 1 holds novelty bin n and column p - 1 popularity bin p.
    grid = rank[1:].reshape(bins.n_novelty_bins, bins.n_popularity_bins)
    width = max(4, len(str(bins.n_states)) + 1)
    lines = ["state ranks by priority index (1 = ranked first)",
             "pop\\nov" + "".join(f"{n:>{width}}" for n in range(1, bins.n_novelty_bins + 1))]
    for p in range(bins.n_popularity_bins, 0, -1):
        lines.append(f"{p:>7}" + "".join(f"{r:>{width}}" for r in grid[:, p - 1].tolist()))
    lines.append(f"state 0 rank: {rank[0]}")
    return "\n".join(lines)
