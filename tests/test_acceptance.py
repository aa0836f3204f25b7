"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test prints a single verdict line (visible with ``pytest -rA`` or
``-s``) and asserts it. The synthetic-month pipeline fixtures are built
once and shared by the later criteria, and by a pin of the month's bytes.
"""

import hashlib
import io
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feedrank.config import RunConfig
from feedrank.errors import DataError
from feedrank.events import build_timelines, serialize_event_log
from feedrank.evaluation import evaluate_run, mean_std, ndcg, pearson, write_header_text
from feedrank.indices import compute_indices, occupancy
from feedrank.model_io import fit_model
from feedrank.states import BinSpec, StateSpace
from feedrank.synth import GeneratorConfig, PEAK_HOURS, generate_stream
from feedrank.transitions import build_model, derive_p0, estimate_p1
from oracles import gittins_restart, mc_occupancy
from samplers import generate_markov_stream

MASTER_SEED = 20260815


def _verdict(num, label, ok, detail=""):
    text = f"acceptance criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        text += f" [{detail}]"
    print(text)
    assert ok, text


# -- criterion 1: classical index ordering when epsilon = 0 -----------------

def _ordering_consistent(g, nu, tol=1e-8):
    n = len(g)
    for i in range(n):
        for j in range(n):
            if nu[i] > nu[j] + tol and not g[i] > g[j]:
                return False
    return True


def test_criterion_01_gittins_ordering_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    checked = 0
    ok = True
    for beta, n_chains in ((0.9, 100), (0.5, 20), (0.99, 20)):
        for k in range(n_chains):
            n = int(rng.integers(4, 9))
            p1 = rng.dirichlet(np.ones(n), size=n)
            rewards = rng.uniform(0, 1, size=n)
            model = build_model(p1, epsilon=0.0, beta=beta)
            table = compute_indices(model, rewards)
            nu = gittins_restart(p1, rewards, beta=beta, tol=1e-12)
            if not _ordering_consistent(table.g, nu):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(1, "epsilon=0 reduces to the classical index ordering",
             ok and elapsed < 60.0,
             f"{checked} chains, {elapsed:.1f}s")


# -- criterion 2: occupancy solver versus Monte Carlo ------------------------

@pytest.mark.slow
def test_criterion_02_occupancy_matches_monte_carlo():
    beta = 0.9
    n = 5
    n_traj_total = 1_000_000
    n_steps = 200
    per_start = n_traj_total // n
    truncation = beta ** n_steps / (1.0 - beta)
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst = 0.0
    ok = True
    for trial in range(20):
        p1 = rng.dirichlet(np.ones(n), size=n)
        eps = rng.uniform(0, 1, size=n)
        model = build_model(p1, epsilon=eps, beta=beta)
        mask = rng.random(n) < 0.5
        if mask.all() or not mask.any():
            mask[int(rng.integers(0, n))] ^= True
        v = occupancy(mask, model)
        for start in range(n):
            est, se = mc_occupancy(mask, model.p1, model.p0, beta, start,
                                   per_start, n_steps, rng)
            gap = abs(v[start] - est)
            allowance = 3.0 * se + truncation
            worst = max(worst, gap / allowance if allowance else 0.0)
            if gap > allowance:
                ok = False
        horizon = 1.0 / (1.0 - beta)
        v_full = occupancy(np.ones(n, dtype=bool), model)
        v_empty = occupancy(np.zeros(n, dtype=bool), model)
        if np.abs(v_full - horizon).max() > 1e-10 or np.abs(v_empty).max() > 1e-10:
            ok = False
    _verdict(2, "occupancy agrees with Monte Carlo within 3 SE", ok,
             f"worst gap {worst:.2f} of allowance")


# -- criterion 3: dual-speed construction algebra ----------------------------

def test_criterion_03_dual_speed_algebra():
    rng = np.random.default_rng(MASTER_SEED + 3)
    ok = True
    worst_cell = 0.0
    worst_row = 0.0
    rows_checked = 0
    for _ in range(100):
        size = 10
        p1 = rng.dirichlet(np.ones(size), size=size)
        eps = rng.uniform(0, 1, size=size)
        p0 = derive_p0(p1, eps)
        for i in range(size):
            for j in range(size):
                expected = (eps[i] * p1[i, j] if i != j
                            else (1.0 - eps[i]) + eps[i] * p1[i, i])
                worst_cell = max(worst_cell, abs(p0[i, j] - expected))
        worst_row = max(worst_row, np.abs(p0.sum(axis=1) - 1.0).max())
        rows_checked += size
    if worst_cell > 1e-15 or worst_row > 1e-12:
        ok = False
    p1 = rng.dirichlet(np.ones(8), size=8)
    if not np.array_equal(derive_p0(p1, 1.0), p1):
        ok = False
    if not np.array_equal(derive_p0(p1, 0.0), np.eye(8)):
        ok = False
    _verdict(3, "slowed-chain algebra exact", ok,
             f"{rows_checked} rows, cell err {worst_cell:.1e}, "
             f"row err {worst_row:.1e}")


# -- criterion 4: transition estimator recovers a known chain -----------------

def _recovery_space():
    bins = BinSpec(tuple(range(1, 12)), tuple(range(10)) + (math.inf,))
    r = tuple(np.linspace(1.0, 0.1, 10))
    return StateSpace(bins, r, r)


def _recovery_chain(rng):
    p1 = np.zeros((101, 101))
    p1[0, 1:11] = 0.1
    for nov in range(1, 10):
        for pop in range(1, 11):
            i = (nov - 1) * 10 + pop
            if pop == 10:
                p1[i, nov * 10 + 10] = 1.0
            else:
                stay = rng.uniform(0.8, 0.9)
                p1[i, nov * 10 + pop] = stay
                p1[i, nov * 10 + pop + 1] = 1.0 - stay
    for pop in range(1, 11):
        p1[90 + pop, 0] = 1.0
    return p1


def test_criterion_04_transition_estimator_recovery():
    space = _recovery_space()
    rng = np.random.default_rng(MASTER_SEED + 4)
    p1_true = _recovery_chain(rng)
    events = generate_markov_stream(space, p1_true, n_items=100_000,
                                    seed=MASTER_SEED + 40, start_minute=120)
    timelines = build_timelines(events)
    window = (120, 120 + space.bins.n_novelty_bins + 2)
    p1_hat = estimate_p1(timelines, space.bins, window)
    err = np.abs(p1_hat - p1_true).max()
    _verdict(4, "estimator recovers a known 101-state chain",
             err < 0.05, f"max-norm error {err:.4f}")


# -- criterion 5: nDCG reference values ---------------------------------------

def test_criterion_05_ndcg_reference_values():
    def ndcg_of(ids, rel):
        return ndcg([2.0 ** rel[iid] - 1.0 for iid in ids])

    ok = ndcg_of(["a", "b", "c"], {"a": 3.0, "b": 1.0, "c": 0.0}) == 1.0
    swap = ndcg_of(["a", "b"], {"a": 0.0, "b": 1.0})
    ok = ok and abs(swap - 1.0 / math.log2(3.0)) < 1e-12
    rng = np.random.default_rng(MASTER_SEED + 5)
    ids = [f"i{k}" for k in range(10)]
    rel = {iid: 3.0 for iid in ids}
    for _ in range(1000):
        if ndcg_of(list(rng.permutation(ids)), rel) != 1.0:
            ok = False
            break
    _verdict(5, "nDCG unit values", ok,
             f"swap value {swap:.12f}")


# -- synthetic month shared by criteria 6..9 ---------------------------------

MONTH_GEN = GeneratorConfig(
    seed=MASTER_SEED,
    n_accounts=25,
    days=30,
    posts_per_day=40.0,
    alpha=2.0,
    x_min=3,
    magnitude_cap=200,
    zero_fraction=0.35,
    gamma=3.6,
    early_weights=(0.9, 1.0, 0.85),
    peak_magnitude_scale=1.5,
)
TRAIN_WINDOW = (0, 15 * 1440)
EVAL_WINDOW = (15 * 1440, 30 * 1440)


@pytest.fixture(scope="module")
def month():
    data = {}
    events = generate_stream(MONTH_GEN)
    timelines = build_timelines(events)
    data["n_posts"] = len(timelines)

    t0 = time.perf_counter()
    bundle = fit_model(timelines, RunConfig(train_window=TRAIN_WINDOW))
    space, model = bundle.space, bundle.model
    data["fit_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    table = compute_indices(model, space.reward)
    data["indices_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = evaluate_run(timelines, space, table.g,
                          RunConfig(eval_window=EVAL_WINDOW, train_window=TRAIN_WINDOW))
    data["evaluate_seconds"] = time.perf_counter() - t0

    data.update(events=events, timelines=timelines, space=space,
                model=model, table=table, report=report)
    return data


def test_criterion_06_policy_ordering_on_synthetic_month(month):
    report = month["report"]
    ok = month["n_posts"] >= 5000
    means = mean_std(report.scores)[0].tolist()
    m = {(p, s): means[i][j] for i, p in enumerate(report.policies)
         for j, s in enumerate(report.signals)}
    utility = [m[("index", "utility")], m[("novelty", "utility")],
               m[("popularity", "utility")]]
    ok = ok and utility[0] >= utility[1] >= utility[2]
    ok = ok and (utility[0] - utility[2]) >= 0.05
    ok = ok and m[("index", "rt")] >= m[("novelty", "rt")]
    detail = (f"{month['n_posts']} posts; utility idx/nov/pop = "
              f"{utility[0]:.3f}/{utility[1]:.3f}/{utility[2]:.3f}; "
              f"rt idx/nov = {m[('index', 'rt')]:.3f}/{m[('novelty', 'rt')]:.3f}")
    _verdict(6, "index >= novelty >= popularity on the synthetic month",
             ok, detail)


def test_criterion_07_correlation_reported(month, tmp_path):
    report = month["report"]
    values = {}
    ok = True
    correlations = pearson(report.scores, report.active_counts).tolist()
    for i, p in enumerate(report.policies):
        for j, s in enumerate(report.signals):
            corr = correlations[i][j]
            values[(p, s)] = corr
            if not (math.isnan(corr) or -1.0 <= corr <= 1.0):
                ok = False
    header = tmp_path / "header.txt"
    write_header_text(report, header)
    text = header.read_text()
    for p in report.policies:
        for s in report.signals:
            if f"pearson_active[{p},{s}] = " not in text:
                ok = False
    _verdict(7, "nDCG/active-count correlation computed and emitted", ok,
             f"index/utility corr = {values[('index', 'utility')]:.4f}")


def test_criterion_08_peak_hours_changes_fit(month):
    timelines = month["timelines"]
    full_space = month["space"]
    peak = fit_model(timelines, RunConfig(train_window=TRAIN_WINDOW,
                                          peak_hours=PEAK_HOURS))
    peak_space = peak.space
    peak_table = compute_indices(peak.model, peak_space.reward)
    peak_report = evaluate_run(timelines, peak_space, peak_table.g,
                               RunConfig(eval_window=EVAL_WINDOW, peak_hours=PEAK_HOURS))
    ok = (peak_space.bins.popularity_limits
          != full_space.bins.popularity_limits)
    rewards_differ = (peak_space.r_n != full_space.r_n
                      or peak_space.r_p != full_space.r_p)
    ok = ok and rewards_differ
    full_means = mean_std(month["report"].scores)[0]
    peak_means = mean_std(peak_report.scores)[0]
    ok = ok and bool((full_means != peak_means).any())
    _verdict(8, "peak-hours refit changes bins, rewards, and summary", ok,
             f"peak lim_p {peak_space.bins.popularity_limits[1:-1]} vs "
             f"full {full_space.bins.popularity_limits[1:-1]}")


def test_criterion_09_runtime_budgets(month):
    fit_eval = (month["fit_seconds"] + month["indices_seconds"]
                + month["evaluate_seconds"])
    ok = month["indices_seconds"] < 10.0 and fit_eval < 300.0
    _verdict(9, "runtime budgets", ok,
             f"indices {month['indices_seconds']:.2f}s, "
             f"month fit+evaluate {fit_eval:.1f}s")


def test_month_stream_bytes_are_pinned(month):
    # The month's serialized log, 442,656 events; any change to a draw,
    # its order, an id or the sort moves the digest.
    out = io.StringIO()
    serialize_event_log(month["events"], out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == \
        "907a3b56d955b6f6b50279b6b304bad5c1024eab091964be544964ec87186ba1"


# -- criterion 10: byte-identical CLI runs ------------------------------------

def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "feedrank.cli", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_10_byte_identical_cli_runs(tmp_path):
    events = str(tmp_path / "events.jsonl")
    model = str(tmp_path / "model.txt")
    report = str(tmp_path / "report")
    commands = [
        ["simulate", "--events", events, "--seed", "5", "--days", "3",
         "--accounts", "2", "--posts-per-day", "25"],
        ["fit", "--events", events, "--model", model,
         "--train-window", "0:2880"],
        ["indices", "--model", model],
        ["evaluate", "--events", events, "--model", model,
         "--report-dir", report, "--eval-window", "2880:3240",
         "--train-window", "0:2880"],
        ["report", "--report-dir", report],
    ]
    tracked = {
        "simulate": [events],
        "fit": [model],
        "indices": [model],
        "evaluate": [f"{report}/series.csv", f"{report}/summary.csv",
                     f"{report}/header.txt"],
        "report": [],
    }

    def run_once():
        outputs = {}
        for cmd in commands:
            stdout = _run_cli(cmd)
            artifacts = tuple(Path(p).read_bytes() for p in tracked[cmd[0]])
            outputs[cmd[0]] = (stdout, artifacts)
        return outputs

    first = run_once()
    second = run_once()
    ok = True
    mismatches = []
    for name in first:
        if first[name] != second[name]:
            ok = False
            mismatches.append(name)
    _verdict(10, "two CLI runs of every subcommand are byte-identical", ok,
             "mismatches: " + (",".join(mismatches) if mismatches else "none"))
