"""Independent reference implementations used to freeze expected values.

Nothing in here imports the package under test. Each oracle uses a
different algorithm than the library (simulation instead of a linear
solve, value iteration instead of adaptive greedy, linear scans instead
of bisect) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np


def mc_occupancy(active, p1, p0, beta, start, n_traj, n_steps, rng):
    """Monte Carlo estimate of discounted time spent inside the active set.

    Simulates the controlled chain (rows of p1 inside the set, rows of p0
    outside) and averages sum_t beta^t * 1{X_t in S} over trajectories.
    Returns (mean, standard_error). Truncation after n_steps leaves a bias
    of at most beta**n_steps / (1 - beta).
    """
    active = np.asarray(active, dtype=bool)
    p_eff = np.where(active[:, None], p1, p0)
    # Column j of the cumulative rows; the next state is the number of
    # columns whose cumulative probability lies below the uniform draw.
    cum_cols = np.cumsum(p_eff, axis=1).T.copy()
    states = np.full(n_traj, start, dtype=np.int64)
    totals = np.zeros(n_traj)
    disc = 1.0
    for _ in range(n_steps):
        totals += disc * active[states]
        u = rng.random(n_traj)
        nxt = np.zeros(n_traj, dtype=np.int64)
        for col in cum_cols:
            nxt += col[states] < u
        states = nxt
        disc *= beta
    se = totals.std(ddof=1) / math.sqrt(n_traj) if n_traj > 1 else float("inf")
    return float(totals.mean()), float(se)


def gittins_restart(p, rewards, beta, tol=1e-12, max_iter=200_000):
    """Gittins indices of a classical chain via the restart formulation.

    For each state i, run value iteration on the restart-in-i problem:
    V_j = max(r_j + beta*(P V)_j, r_i + beta*(P V)_i). The index is
    nu_i = (1 - beta) * V_i.
    """
    p = np.asarray(p, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    n = len(rewards)
    nu = np.zeros(n)
    for i in range(n):
        v = np.zeros(n)
        for _ in range(max_iter):
            q_cont = rewards + beta * (p @ v)
            v_new = np.maximum(q_cont, q_cont[i])
            delta = np.max(np.abs(v_new - v))
            v = v_new
            if delta < tol:
                break
        else:
            raise RuntimeError("restart value iteration did not converge")
        nu[i] = (1.0 - beta) * v[i]
    return nu


def greedy_indices_reference(p1, p0, beta, rewards):
    """Adaptive-greedy indices with one fresh dense solve per extraction.

    The O(n^4) form of the Bertsimas-Nino-Mora sweep: at each step,
    solve for the occupancy V of the extracted states (rows of p1 inside
    that set, rows of p0 outside), take the constants
    A = 1 + beta * (p1 - p0) V, and extract the first maximizer of
    (reward - accumulated adjustment) / A among the remaining states.
    Returns (g, pi_order, y_values).
    """
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    r = np.asarray(rewards, dtype=float)
    n = len(r)
    remaining = np.ones(n, dtype=bool)
    adjust = np.zeros(n)
    g = np.zeros(n)
    pi_order = np.empty(n, dtype=int)
    y_values = np.empty(n)
    running = 0.0
    for step in range(n):
        extracted = ~remaining
        m = np.eye(n) - beta * np.where(extracted[:, None], p1, p0)
        v = np.linalg.solve(m, extracted.astype(float))
        a = 1.0 + beta * ((p1 - p0) @ v)
        members = np.flatnonzero(remaining)
        ratios = (r[members] - adjust[members]) / a[members]
        pick = int(np.argmax(ratios))
        state = int(members[pick])
        running += float(ratios[pick])
        g[state] = running
        pi_order[step] = state
        y_values[step] = ratios[pick]
        adjust += a * ratios[pick]
        remaining[state] = False
    return g, pi_order, y_values


def count_transitions_bruteforce(items, novelty_limits, popularity_limits,
                                 n_pop, window):
    """Transition counts over a half-open minute window, the slow way.

    ``items`` maps item_id -> (post_minute, retweet_minutes list). Every
    item contributes one (state at t, state at t+1) pair for every t with
    t and t+1 both inside [start, end). States are computed with linear
    scans over the bin limits.
    """
    start, end = window
    n_states = 1 + (len(novelty_limits) - 1) * n_pop
    counts = np.zeros((n_states, n_states), dtype=np.int64)

    def nov_bin(age):
        if age < novelty_limits[0] or age >= novelty_limits[-1]:
            return 0
        b = 0
        for lim in novelty_limits:
            if age >= lim:
                b += 1
            else:
                break
        return b

    def pop_bin(count):
        b = 0
        for lim in popularity_limits:
            if count >= lim:
                b += 1
            else:
                break
        return min(b, n_pop)

    def state(post_minute, rts, t):
        age = t - post_minute
        nb = nov_bin(age)
        if nb == 0:
            return 0
        c = sum(1 for m in rts if m < t)
        return (nb - 1) * n_pop + pop_bin(c)

    for post_minute, rts in items.values():
        for t in range(start, end - 1):
            a = state(post_minute, rts, t)
            b = state(post_minute, rts, t + 1)
            counts[a, b] += 1
    return counts


def rows_to_probabilities(counts, smoothing=0.0):
    """Normalize a count matrix row-wise; empty rows become self loops."""
    counts = counts.astype(float) + smoothing
    p = np.zeros_like(counts)
    for i, row in enumerate(counts):
        total = row.sum()
        if total == 0:
            p[i, i] = 1.0
        else:
            p[i] = row / total
    return p


def powerlaw_alpha_mle(samples, x_min=1, cap=None):
    """Maximum-likelihood exponent of a discrete power law.

    The likelihood uses the (optionally truncated) Hurwitz zeta
    normalizer: P(x) proportional to x**-alpha on x_min..cap.
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta

    samples = np.asarray(samples, dtype=float)
    if np.any(samples < x_min):
        raise ValueError("sample below x_min")
    log_sum = float(np.sum(np.log(samples)))
    n = len(samples)

    def neg_loglik(alpha):
        z = zeta(alpha, x_min)
        if cap is not None:
            z -= zeta(alpha, cap + 1)
        return n * math.log(z) + alpha * log_sum / 1.0

    res = minimize_scalar(neg_loglik, bounds=(1.05, 6.0), method="bounded",
                          options={"xatol": 1e-8})
    return float(res.x)


def quantile_limits_bruteforce(counts, n_bins=10):
    """Popularity bin limits straight from the written rule.

    Bin 1 is reserved for zero counts. The remaining n_bins - 1 bins get
    lower limits at the ceil(k*m/groups)-th order statistic of the m
    nonzero counts (0-based, clamped to the last element).
    """
    nonzero = sorted(c for c in counts if c > 0)
    m = len(nonzero)
    groups = n_bins - 1
    limits = [0]
    for k in range(groups):
        idx = min(math.ceil(k * m / groups), m - 1)
        limits.append(nonzero[idx])
    limits.append(math.inf)
    return tuple(limits)


def ndcg_bruteforce(relevance_in_rank_order):
    """nDCG with the ideal ordering found by trying every permutation."""
    from itertools import permutations

    scores = list(relevance_in_rank_order)

    def dcg(seq):
        return sum((2.0 ** s - 1.0) / math.log2(1 + pos)
                   for pos, s in enumerate(seq, start=1))

    actual = dcg(scores)
    best = max(dcg(perm) for perm in permutations(scores))
    if best == 0:
        return 1.0
    return actual / best


def pearson_bruteforce(x, y):
    """Pearson correlation from the textbook definition."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    if sx == 0 or sy == 0:
        return float("nan")
    return cov / (sx * sy)


_LOG_KINDS = ("post", "retweet", "reply", "favorite")
_LOG_MAX_TS = 2**31 * 60 - 1


def _reference_record_problem(rec):
    if not isinstance(rec, dict):
        return "record is not a JSON object"
    missing = [k for k in ("kind", "item_id", "event_id", "ts", "account") if k not in rec]
    if missing:
        return f"missing key(s): {', '.join(missing)}"
    if rec["kind"] not in _LOG_KINDS:
        return f"unknown kind {rec['kind']!r}"
    for key in ("item_id", "event_id", "account"):
        if not isinstance(rec[key], str):
            return f"{key} must be a string"
    if not rec["item_id"] or not rec["event_id"]:
        return "item_id and event_id must be non-empty"
    ts = rec["ts"]
    if isinstance(ts, bool) or not isinstance(ts, int):
        return "ts must be an integer"
    if not 0 <= ts <= _LOG_MAX_TS:
        return f"ts must lie in 0..{_LOG_MAX_TS}"
    if rec["kind"] == "post" and rec["item_id"] != rec["event_id"]:
        return "post events must have item_id equal to event_id"
    return None


def parse_reference(text):
    """An event log's item table, one ``json.loads`` per line and one loop per event.

    Returns ``(ids, post_ts, keys, stride)`` as ``ItemTable`` holds them.
    A log with bad lines raises ``ValueError`` whose argument is the list
    of (line number, message) pairs; a log whose engagement has no post,
    or predates it, raises ``ValueError`` with one message.
    """
    events, errors, event_lines = [], [], {}
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append((lineno, f"invalid JSON ({exc.msg})"))
            continue
        except ValueError as exc:  # an integer of more than 4,300 digits
            errors.append((lineno, f"invalid JSON ({exc})"))
            continue
        problem = _reference_record_problem(rec)
        if problem is not None:
            errors.append((lineno, problem))
            continue
        prev = event_lines.setdefault(rec["event_id"], lineno)
        if prev != lineno:
            errors.append(
                (lineno, f"duplicate event_id {rec['event_id']!r} (first at line {prev})"))
            continue
        events.append((rec["kind"], rec["item_id"], rec["event_id"], rec["ts"]))
    if errors:
        raise ValueError(errors)

    posts, engagement = {}, []
    for kind, item_id, event_id, ts in events:
        if kind == "post":
            if item_id in posts:
                raise ValueError(f"duplicate post for item {item_id!r}")
            posts[item_id] = ts
        else:
            engagement.append((kind, item_id, event_id, ts))
    orphans = sorted({item_id for _, item_id, _, _ in engagement if item_id not in posts})
    if orphans:
        raise ValueError(
            f"engagement for {len(orphans)} item(s) with no post: {', '.join(orphans)}")
    for kind, item_id, event_id, ts in engagement:
        if ts // 60 < posts[item_id] // 60:
            raise ValueError(
                f"{kind} {event_id!r} for item {item_id!r} is dated minute {ts // 60}, "
                f"before the post minute {posts[item_id] // 60}")

    ids = sorted(posts)
    row_of = {item_id: row for row, item_id in enumerate(ids)}
    post_ts = np.array([posts[item_id] for item_id in ids], dtype=np.int64)
    stride = max([ts // 60 for _, _, _, ts in engagement] + [ts // 60 for ts in posts.values()],
                 default=0) + 1
    keys = {kind: np.array(sorted(row_of[item_id] * stride + ts // 60
                                  for k, item_id, _, ts in engagement if k == kind),
                           dtype=np.int64)
            for kind in _LOG_KINDS[1:]}
    return tuple(ids), post_ts, keys, stride


def evaluate_reference(posts, engagement, novelty_limits, popularity_limits, reward, g,
                       policies, signals, window, horizon, interval=1, peak_hours=None,
                       cap=30):
    """The evaluation pass one decision minute at a time, with scalar rules.

    ``posts`` maps item id to post ``ts`` (seconds) and ``engagement``
    lists ``(kind, item_id, minute)`` events. Every minute of the window
    is scanned; each item's activity, counts and state come from linear
    scans, the policies rank with ``sorted`` and nDCG adds with ``sum``.
    Returns ``(minutes, active_counts, series, skipped_empty,
    snapshot_rows)`` with ``series[(policy, signal)]`` one score per
    listed minute and snapshot rows ``(minute, policy, rank, item_id,
    state)``.
    """
    kinds = {"rt": ("retweet",), "rt_replies": ("retweet", "reply"),
             "rt_replies_favs": ("retweet", "reply", "favorite")}
    n_pop = len(popularity_limits) - 1

    def count(item_id, kinds_counted, lo, hi):
        return sum(1 for kind, iid, m in engagement
                   if iid == item_id and kind in kinds_counted and lo <= m < hi)

    def state(age, retweets):
        if not novelty_limits[0] <= age <= novelty_limits[-1] - 1:
            return 0
        nov = sum(1 for lim in novelty_limits if lim <= age)
        pop = sum(1 for lim in popularity_limits if lim <= retweets)
        return (nov - 1) * n_pop + pop

    def score(gains):
        dcg = sum(x / math.log2(pos + 1) for pos, x in enumerate(gains, start=1))
        ideal = sum(x / math.log2(pos + 1)
                    for pos, x in enumerate(sorted(gains, reverse=True), start=1))
        return 1.0 if ideal == 0.0 else dcg / ideal

    minutes, counts, rows, skipped = [], [], [], 0
    series = {(p, s): [] for p in policies for s in signals}
    for t in range(window[0], window[1], interval):
        if peak_hours is not None and (t // 60) % 24 not in peak_hours:
            continue
        active = [iid for iid in sorted(posts) if 0 < t - posts[iid] // 60 <= horizon]
        if not active:
            skipped += 1
            continue
        minutes.append(t)
        counts.append(len(active))
        retweets = {iid: count(iid, ("retweet",), 0, t) for iid in active}
        states = {iid: state(t - posts[iid] // 60, retweets[iid]) for iid in active}
        keys = {"index": lambda iid: (-g[states[iid]], -posts[iid], iid),
                "novelty": lambda iid: (-posts[iid], iid),
                "popularity": lambda iid: (-retweets[iid], -posts[iid], iid)}
        relevance = {}
        for s in signals:
            if s == "utility":
                relevance[s] = {iid: reward[state(t + 1 - posts[iid] // 60,
                                                  count(iid, ("retweet",), 0, t + 1))]
                                for iid in active}
            else:
                relevance[s] = {iid: min(count(iid, kinds[s], t, t + 1), cap)
                                for iid in active}
        for p in policies:
            ranked = sorted(active, key=keys[p])
            rows.extend((t, p, rank, iid, states[iid])
                        for rank, iid in enumerate(ranked, start=1))
            for s in signals:
                series[(p, s)].append(score([2.0 ** float(relevance[s][iid]) - 1.0
                                             for iid in ranked]))
    return minutes, counts, series, skipped, rows
