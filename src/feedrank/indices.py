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
of the extracted ratios.

Each extraction moves one state into the complement, which changes one
row of the system (a ``p0`` row becomes a ``p1`` row) and one entry of
its right-hand side. So ``compute_indices`` factors the system once and
follows every step with a Sherman-Morrison rank-one update of the
inverse, the fast-pivoting scheme of Nino-Mora (INFORMS J. Computing,
2007), with the occupancy residual checked at every step. The updates
are delayed: the inverse is held as ``base - C @ W`` with at most
``_BLOCK`` pending rank-one terms, which a step applies with two thin
products, and every ``_BLOCK`` updates one matrix product folds them
into ``base``. ``occupancy`` and ``constants_a`` solve for one given set
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import IndexabilityError, NumericalError
from .transitions import TransitionModel

RESIDUAL_TOL_FACTOR = 1e-10
_MAX_REFINEMENTS = 2
# Pending rank-one terms of the sweep's inverse before one product folds them in.
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


def _inverse(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"occupancy solve failed: {exc}") from exc


class _DelayedInverse:
    """The inverse of ``M`` as ``base - cols[:k].T @ rows[:k]``, ``k`` pending terms.

    Each Sherman-Morrison update appends one term; every ``_BLOCK``
    updates one matrix product folds the terms into ``base``.
    """

    def __init__(self, m: np.ndarray):
        n = len(m)
        self.cols = np.empty((_BLOCK, n))
        self.rows = np.empty((_BLOCK, n))
        self.reset(m)

    def reset(self, m: np.ndarray) -> None:
        """Factor ``m`` afresh and drop the pending terms."""
        self.base = _inverse(m)
        self.pending = 0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``inv(M) @ x``."""
        k = self.pending
        return self.base @ x - self.cols[:k].T @ (self.rows[:k] @ x)

    def update(self, s: int, u: np.ndarray) -> float:
        """Follow ``M[s] += u`` and return the pivot ``1 + (u @ inv(M))[s]``."""
        k = self.pending
        cols, rows = self.cols[:k], self.rows[:k]
        w = u @ self.base - (cols @ u) @ rows
        pivot = 1.0 + w[s]
        self.cols[k] = (self.base[:, s] - rows[:, s] @ cols) / pivot
        self.rows[k] = w
        self.pending = k + 1
        if self.pending == _BLOCK:
            self.base -= self.cols.T @ self.rows
            self.pending = 0
        return pivot


def _refine(m: np.ndarray, solve: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
            tol: float) -> tuple[np.ndarray, int, float]:
    """Solve ``m v = b`` with ``solve(x) = inv(m) @ x``, refining while the
    residual exceeds ``tol``.

    Returns ``v``, the refinements applied (at most ``_MAX_REFINEMENTS``)
    and the residual ``||b - m v||_inf`` of the returned ``v``.
    """
    v = solve(b)
    residual = b - m @ v
    k = 0
    while not np.abs(residual).max() <= tol and k < _MAX_REFINEMENTS:
        v = v + solve(residual)
        residual = b - m @ v
        k += 1
    return v, k, float(np.abs(residual).max())


def _residual_error(residual: float, tol: float) -> NumericalError:
    return NumericalError(f"occupancy residual {residual:.3e} exceeds tolerance {tol:.3e}")


def occupancy(active: Iterable[int] | np.ndarray, model: TransitionModel) -> np.ndarray:
    """Discounted occupancy times of ``active`` from every start state.

    Solves the defining linear system with a dense inverse and checks
    the residual against ``1e-10 / (1 - beta)`` in max norm, refining as
    ``compute_indices`` does; raises ``NumericalError`` if the residual
    still exceeds it.
    """
    n = model.n_states
    mask = _as_mask(active, n)
    m = np.eye(n) - model.beta * np.where(mask[:, None], model.p1, model.p0)
    tol = RESIDUAL_TOL_FACTOR / (1.0 - model.beta)
    v, _, residual = _refine(m, _inverse(m).dot, mask.astype(float), tol)
    if not residual <= tol:  # a nan residual fails too
        raise _residual_error(residual, tol)
    return v


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
    ``min_pivot`` is the smallest Sherman-Morrison pivot ``|1 + w[s]|`` of
    a step that changes ``M`` (inf if none does; near 0 an update loses
    accuracy), ``max_residual`` the largest occupancy residual accepted at
    any step. ``refinements`` counts iterative-refinement passes and
    ``refactorizations`` the fresh factorizations after the first one.
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

    The sweep owns one occupancy system ``M v = b`` for the set of
    states extracted so far: ``M = I - beta * p0`` and ``b = 0`` at the
    start, factored once. Extracting a state turns its row of ``M`` into
    the ``p1`` row ``e_s - beta * p1[s]`` and sets ``b[s] = 1``, so the
    inverse follows by one Sherman-Morrison rank-one update. The update
    is delayed: it stays a pending term, the step applies the inverse
    with two thin products, and every ``_BLOCK`` updates one matrix
    product folds the pending terms into the factored inverse. The
    residual ``||b - M v||_inf`` is checked at every step against
    ``1e-10 / (1 - beta)``; past it, up to ``_MAX_REFINEMENTS``
    refinements run with the current inverse, then ``M`` is factored
    afresh, dropping the pending terms, and if that also fails
    ``NumericalError`` is raised. The maximization breaks exact ties by
    lowest state index. Raises ``IndexabilityError`` if a normalizing
    constant is not strictly positive when it is needed.
    """
    r = np.asarray(rewards, dtype=float)
    n = model.n_states
    if r.shape != (n,):
        raise ValueError(f"rewards must have length {n}")
    beta = model.beta
    tol = RESIDUAL_TOL_FACTOR / (1.0 - beta)

    diff = model.p1 - model.p0
    identity = np.eye(n)
    m = identity - beta * model.p0  # occupancy's system with no state extracted
    m_inv = _DelayedInverse(m)
    v = np.zeros(n)
    remaining = np.ones(n, dtype=bool)
    adjust = np.zeros(n)
    pi_order = np.empty(n, dtype=int)
    y_values = np.empty(n)
    min_a = (np.inf, 0, 0)
    min_pivot, max_residual = np.inf, 0.0
    refinements = refactorizations = 0

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

        # The extracted state enters the occupancy set: its row of M
        # becomes the p1 row, built as ``occupancy`` builds it.
        row = identity[state] - beta * model.p1[state]
        u = row - m[state]
        b = (~remaining).astype(float)  # the extracted set
        # Equal p1 and p0 rows (absorbing state, or epsilon 1) leave M and its inverse as is.
        if u.any():
            m[state] = row
            min_pivot = min(min_pivot, abs(m_inv.update(state, u)))
        v, k, residual = _refine(m, m_inv.apply, b, tol)
        refinements += k
        if not residual <= tol:  # a nan residual fails too
            m_inv.reset(m)
            refactorizations += 1
            v, k, residual = _refine(m, m_inv.apply, b, tol)
            refinements += k
            if not residual <= tol:
                raise _residual_error(residual, tol)
        max_residual = max(max_residual, residual)

    g = np.empty(n)
    g[pi_order] = np.cumsum(y_values)
    return IndexTable(g=g, sweep=SweepStats(pi_order, y_values, *min_a, float(min_pivot),
                                            max_residual, refinements, refactorizations))


def rank_states(table: IndexTable) -> list[int]:
    """States sorted by descending G, ties broken by lowest index."""
    return np.argsort(-table.g, kind="stable").tolist()


def format_rank_grid(table: IndexTable, bins) -> str:
    """Human-readable grid of state ranks (1 = highest priority).

    Rows are popularity bins from highest to lowest, columns novelty
    bins from newest to oldest, with the out-of-window state listed
    separately.
    """
    rank = np.empty(bins.n_states, dtype=int)
    rank[rank_states(table)] = np.arange(1, bins.n_states + 1)
    # In classify's numbering, row n - 1 holds novelty bin n and column p - 1 popularity bin p.
    grid = rank[1:].reshape(bins.n_novelty_bins, bins.n_popularity_bins)
    width = max(4, len(str(bins.n_states)) + 1)
    lines = ["state ranks by priority index (1 = ranked first)",
             "pop\\nov" + "".join(f"{n:>{width}}" for n in range(1, bins.n_novelty_bins + 1))]
    for p in range(bins.n_popularity_bins, 0, -1):
        lines.append(f"{p:>7}" + "".join(f"{r:>{width}}" for r in grid[:, p - 1].tolist()))
    lines.append(f"state 0 rank: {rank[0]}")
    return "\n".join(lines)
