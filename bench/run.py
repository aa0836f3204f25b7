"""End-to-end and per-layer benchmark of the feedrank CLI pipeline.

    python3 bench/run.py --workload dense_feed --seed 20260815 --seconds 55 --trace 0

One client, closed loop: each pipeline runs the five subcommands of the
README quickstart (simulate, fit, indices, evaluate, report) in order,
each in a fresh ``python -m feedrank.cli`` process started only after
the previous one ended, with numpy/BLAS threading left at its defaults.
The program gets only generated inputs: a config JSON with the
generator settings (seeded by ``--seed``) plus flags. The benchmark
runs the source tree next to it (``src/``); nothing is installed.

``--trace 0`` repeats whole pipelines for ``--seconds`` (at least one)
and reports each end-to-end metric as its median over them. ``setup_s``
is the median of several set-ups.
``--trace 1`` runs one untraced pipeline, then one with every
subcommand under ``trace_boot.py``, then the dense-chain ``indices``
sweep, and reports the per-layer metrics.

Every subcommand run is one operation. It fails on a nonzero exit, a
traceback on stderr, or output that disagrees with the digests pinned
in ``digests.json`` for the workload's default seed. The last stdout
line is the JSON result; the line before it holds the run context, the
host-drift probe and the output digests, so runs at any seed can be
compared across commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"
DEFAULT_SEED = 20260815
SETUP_REPEATS = 5
# A run must end within 180 s; no pipeline starts unless one as long as
# the last would still end before this, and a child still running at
# the hard deadline is killed and counted as failed.
PIPELINE_LIMIT_S = 150.0
HARD_DEADLINE_S = 170.0
DENSE_CHAIN_SIZES = (101, 301, 601)
G_TOLERANCE = 1e-10
STEPS = ("simulate", "fit", "indices", "evaluate", "report")

# The generator settings of the acceptance suite's month corpus.
MONTH_GEN = {
    "n_accounts": 25, "days": 30, "posts_per_day": 40.0, "alpha": 2.0,
    "x_min": 3, "magnitude_cap": 200, "zero_fraction": 0.35, "gamma": 3.6,
    "early_weights": [0.9, 1.0, 0.85], "peak_magnitude_scale": 1.5,
}


@dataclass(frozen=True)
class Workload:
    generator: dict
    train_window: str
    eval_window: str
    fit_flags: tuple[str, ...] = ()


# Why each workload exists. Both use the acceptance suite's generator
# settings, cut down so that one run repeats the whole pipeline five to
# eight times: on a shared 2-core host the same step varies by 20-50%
# from one pipeline to the next, so a run reports medians.
# fine_grid   one-minute novelty bins give 401 states, so indices (about
#             half the pipeline) and the 0.7 MB model file dominate;
#             ingest and evaluate are small.
# dense_feed  six times the month's accounts, evaluated over the day's
#             busiest hours (about 350 active items a minute against 40),
#             so ingest and per-item ranking and nDCG work in evaluate
#             dominate; indices is under 5%.
WORKLOADS = {
    "fine_grid": Workload(
        {**MONTH_GEN, "days": 2}, "0:1440", "1440:2880",
        ("--novelty-limits", ",".join(str(a) for a in range(1, 42)))),
    "dense_feed": Workload(
        {**MONTH_GEN, "n_accounts": 150, "days": 1}, "0:720", "720:960"),
}

END_TO_END = {
    "pipeline_s": "s", "refit_s": "s", "evaluate_s": "s",
    "pipeline_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}

# (traced function, statistic) pairs reported from the spans.
SPAN_METRICS = (
    ("synth.generate_stream", "self_s"),
    ("events.parse_event_log", "calls"), ("events.parse_event_log", "self_s"),
    ("events.build_timelines", "calls"), ("events.build_timelines", "self_s"),
    ("events.serialize_event_log", "calls"), ("events.serialize_event_log", "self_s"),
    ("states.classify", "calls"), ("states.classify", "self_s"),
    ("states.fit_rewards", "self_s"), ("states.fit_popularity_bins", "self_s"),
    ("transitions.estimate_p1", "total_s"), ("transitions.estimate_p1", "self_s"),
    ("indices.compute_indices", "total_s"), ("indices.compute_indices", "self_s"),
    ("indices.occupancy", "calls"), ("indices.occupancy", "self_s"),
    ("model_io.read_model", "self_s"), ("model_io.write_model", "self_s"),
    ("ranking.rank_items", "calls"), ("ranking.rank_items", "self_s"),
    ("ranking.rank_items", "total_s"), ("ranking.rank_items", "p50_us"),
    ("ranking.rank_items", "p99_us"),
    ("evaluation.evaluate_run", "self_s"),
    ("evaluation.ndcg", "calls"), ("evaluation.ndcg", "self_s"),
    ("evaluation.utility_relevance", "calls"), ("evaluation.utility_relevance", "self_s"),
    ("evaluation.attention_relevance", "calls"),
    ("evaluation.attention_relevance", "self_s"),
)
_STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
               "p50_us": "us", "p99_us": "us"}

PER_LAYER = {
    **{f"{fn}.{stat}": _STAT_UNITS[stat] for fn, stat in SPAN_METRICS},
    "events.n_events": "count", "events.n_items": "count",
    "indices.n_states": "count", "model_io.model_bytes": "bytes",
    "evaluation.minutes": "count", "evaluation.mean_active": "items",
    **{f"cli.{step}.{name}": unit for step in STEPS
       for name, unit in (("cpu_s", "s"), ("minflt", "count"), ("rss_mb", "MB"))},
    **{f"indices.dense_chain.n{n}_s": "s" for n in DENSE_CHAIN_SIZES},
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The benchmark cannot run here (no source tree, import fails)."""


@dataclass
class Child:
    """One finished child process, measured by ``os.wait4``."""

    name: str
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    minflt: int
    stdout: bytes
    problem: str = ""


@dataclass
class Pipeline:
    children: list[Child] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.children) == len(STEPS) and all(c.ok for c in self.children)

    def end_to_end(self) -> dict[str, float]:
        wall = {c.name: c.wall_s for c in self.children}
        return {
            "pipeline_s": sum(wall.values()),
            "refit_s": wall["fit"] + wall["indices"],
            "evaluate_s": wall["evaluate"],
            "pipeline_cpu_s": sum(c.cpu_s for c in self.children),
            "peak_rss_mb": max(c.rss_mb for c in self.children),
        }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(name: str, argv: list[str], cwd: Path, deadline: float) -> Child:
    """Run one child to completion and measure it; kill it at ``deadline``."""
    out_path, err_path = cwd / f".{name}.stdout", cwd / f".{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_bytes()
    problem = ""
    if proc.returncode != 0:
        problem = f"exit code {proc.returncode}"
    elif b"Traceback (most recent call last)" in stderr:
        problem = "traceback on stderr"
    if problem:
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        print(f"{name}: {problem}", *tail, sep="\n  ", file=sys.stderr)
    return Child(name, not problem, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, usage.ru_minflt, stdout, problem)


def cli_commands(wl: Workload) -> list[tuple[str, list[str]]]:
    """The quickstart's five subcommands, with paths relative to the run dir."""
    return [
        ("simulate", ["simulate", "--config", "config.json", "--events", "events.jsonl"]),
        ("fit", ["fit", "--events", "events.jsonl", "--model", "model.txt",
                 "--train-window", wl.train_window, *wl.fit_flags]),
        ("indices", ["indices", "--model", "model.txt"]),
        ("evaluate", ["evaluate", "--events", "events.jsonl", "--model", "model.txt",
                      "--report-dir", "report", "--eval-window", wl.eval_window,
                      "--train-window", wl.train_window]),
        ("report", ["report", "--report-dir", "report"]),
    ]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def model_digests(path: Path, with_index: bool) -> dict:
    """Model contents through ``read_model``, so the file format may change."""
    import numpy as np
    from feedrank.model_io import read_model

    bundle = read_model(path)
    p1 = np.ascontiguousarray(bundle.p1, dtype="<f8")
    reward = np.ascontiguousarray(bundle.state_space().reward, dtype="<f8")
    if np.abs(p1.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError("p1 rows do not sum to 1")
    out = {"p1": hashlib.sha256(p1.tobytes()).hexdigest(),
           "reward": hashlib.sha256(reward.tobytes()).hexdigest()}
    if with_index:
        g = [float(v) for v in bundle.index.g]
        if len(g) != len(p1) or not all(np.isfinite(g)):
            raise ValueError("index table is not one finite value per state")
        out["g"] = g
    return out


def step_digests(step: str, rundir: Path, child: Child) -> dict:
    if step == "simulate":
        return {"events.jsonl": sha256_file(rundir / "events.jsonl")}
    if step in ("fit", "indices"):
        return model_digests(rundir / "model.txt", with_index=step == "indices")
    if step == "evaluate":
        return {name: sha256_file(rundir / "report" / name)
                for name in ("series.csv", "summary.csv", "header.txt")}
    return {"report.stdout": hashlib.sha256(child.stdout).hexdigest()}


def digest_mismatches(got: dict, want: dict) -> list[str]:
    """Keys of ``want`` that ``got`` misses or disagrees with (g to 1e-10)."""
    bad = []
    for key, expected in want.items():
        value = got.get(key)
        if key == "g":
            if (value is None or len(value) != len(expected)
                    or max(abs(a - b) for a, b in zip(value, expected)) > G_TOLERANCE):
                bad.append(key)
        elif value != expected:
            bad.append(key)
    return bad


def run_pipeline(wl: Workload, rundir: Path, deadline: float, pinned: dict | None,
                 spans_dir: Path | None = None) -> Pipeline:
    """Run the five subcommands in order; stop at the first failed one.

    With ``spans_dir`` each subcommand runs under the tracer bootstrap
    and leaves ``<step>.spans`` there.
    """
    result = Pipeline()
    for step, args in cli_commands(wl):
        if spans_dir is None:
            argv = [sys.executable, "-m", "feedrank.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "trace_boot.py"),
                    str(spans_dir / f"{step}.spans"), *args]
        child = run_child(step, argv, rundir, deadline)
        result.children.append(child)
        if child.ok:
            try:
                digests = step_digests(step, rundir, child)
            except Exception as exc:  # any failure to read an output fails the step
                traceback.print_exc()
                child.ok, child.problem = False, f"output check: {exc!r}"
            else:
                result.digests.update(digests)
                want = {k: v for k, v in (pinned or {}).items() if k in digests}
                bad = digest_mismatches(digests, want)
                if bad:
                    child.ok, child.problem = False, f"digest mismatch: {', '.join(bad)}"
            if not child.ok:
                print(f"{step}: {child.problem}", file=sys.stderr)
        if not child.ok:
            break
    return result


def set_up(rundir: Path, config: dict, deadline: float) -> float:
    """Fresh run directory, config file, and a warm-up ``import feedrank``."""
    t0 = time.perf_counter()
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    (rundir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    warm = run_child("warmup", [sys.executable, "-c", "import feedrank"], rundir, deadline)
    if not warm.ok:
        raise SetupError(f"import feedrank failed: {warm.problem}")
    return time.perf_counter() - t0


def python_loop_s() -> float:
    """Median of five timings of a fixed pure-Python loop.

    Its time drifts with the host, not with the code under test.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def blas_info() -> dict:
    """BLAS vendor and its default thread count, as numpy loaded it."""
    import ctypes
    import numpy as np

    info = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_context() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "cpu_count": os.cpu_count(), "git_rev": git_rev()}


def corpus_counts(simulate: Child) -> tuple[int, int]:
    """Events and posts written, from simulate's ``wrote N events (M posts)``."""
    match = re.search(rb"wrote (\d+) events \((\d+) posts\)", simulate.stdout)
    if match is None:
        raise ValueError("simulate did not report its event and post counts")
    return int(match[1]), int(match[2])


def evaluation_counts(series_path: Path) -> tuple[int, float]:
    """Evaluated minutes and their mean active-set size, from series.csv."""
    import csv

    active = {}
    with open(series_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            active[row["minute"]] = int(row["active_count"])
    return len(active), statistics.fmean(active.values()) if active else 0.0


def layer_metrics(spans_dir: Path) -> tuple[dict[str, float], list[str]]:
    """Sum span statistics over the subcommands' span files."""
    import numpy as np
    from tracer import read_spans, span_stats

    totals: dict[str, dict] = {}
    absent: set[str] = set()
    for step in STEPS:
        header, columns = read_spans(spans_dir / f"{step}.spans")
        absent.update(header["absent"])
        for name, stats in span_stats(header["names"], columns).items():
            acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "durations_s": []})
            for key in ("calls", "total_s", "self_s"):
                acc[key] += stats[key]
            acc["durations_s"].append(stats["durations_s"])
    metrics = {}
    for fn, stat in SPAN_METRICS:
        acc = totals.get(fn)
        if acc is None:
            value = 0.0
        elif stat in ("p50_us", "p99_us"):
            durations = np.concatenate(acc["durations_s"])
            q = 50 if stat == "p50_us" else 99
            value = float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0
        else:
            value = acc[stat]
        metrics[f"{fn}.{stat}"] = value
    return metrics, sorted(absent)


def dense_chain_sweep(seed: int, rundir: Path, deadline: float) -> tuple[dict, list[Child]]:
    metrics, children = {}, []
    for n in DENSE_CHAIN_SIZES:
        child = run_child(f"dense{n}", [sys.executable, str(BENCH / "dense_chain.py"),
                                        str(n), str(seed)], rundir, deadline)
        if child.ok:
            try:
                out = json.loads(child.stdout.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                out = {"ok": False}
            if out.get("ok"):
                metrics[f"indices.dense_chain.n{n}_s"] = out["seconds"]
            else:
                child.ok, child.problem = False, "dense chain check failed"
                print(f"dense chain n={n}: index table check failed", file=sys.stderr)
        children.append(child)
        if not child.ok:
            break
    return metrics, children


def emit(metric_units: dict[str, str], values: dict[str, float],
         children: list[Child], context: dict) -> None:
    """Print the context line, then the JSON result as the last line.

    A metric of a traced function that no longer exists keeps its name
    and value 0 but is marked ``"absent": true``, so it does not read as
    a gain.
    """
    failed = sum(not c.ok for c in children)
    absent = {f"{fn}.{stat}" for fn, stat in SPAN_METRICS
              if fn in context.get("absent", ())}
    metrics = {name: {"value": values[name], "unit": unit,
                      **({"absent": True} if name in absent else {})}
               for name, unit in metric_units.items() if name in values}
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(metric_units),
                      "attempted": len(children), "failed": failed,
                      "metrics": metrics}))


def measure_end_to_end(wl: Workload, rundir: Path, seconds: float, run_start: float,
                       pinned: dict | None, context: dict) -> tuple[dict, list[Child]]:
    """Whole pipelines for ``seconds``; the median of each metric over them.

    A pipeline starts only if one as long as the last would still end
    within ``seconds``, so a run measures for about ``seconds``.
    """
    deadline = run_start + HARD_DEADLINE_S
    end = min(time.monotonic() + seconds, run_start + PIPELINE_LIMIT_S)
    pipelines = [run_pipeline(wl, rundir, deadline, pinned)]
    while pipelines[-1].complete:
        last = sum(c.wall_s for c in pipelines[-1].children)
        if time.monotonic() + last > end:
            break
        pipelines.append(run_pipeline(wl, rundir, deadline, pinned))
    values = {}
    if all(p.complete for p in pipelines):
        per_pipeline = [p.end_to_end() for p in pipelines]
        values = {k: statistics.median(r[k] for r in per_pipeline) for k in per_pipeline[0]}
    context.update(pipelines=len(pipelines), digests=pipelines[0].digests,
                   step_wall_s=[{c.name: c.wall_s for c in p.children} for p in pipelines])
    return values, [c for p in pipelines for c in p.children]


def measure_layers(wl: Workload, rundir: Path, seed: int, deadline: float,
                   pinned: dict | None, context: dict) -> tuple[dict, list[Child]]:
    """One untraced pipeline, one traced, then the dense-chain sweep."""
    spans_dir = rundir / "spans"
    spans_dir.mkdir()
    base = run_pipeline(wl, rundir, deadline, pinned)
    context["digests"] = base.digests
    if not base.complete:
        return {}, base.children
    # The traced outputs must equal the untraced ones.
    traced = run_pipeline(wl, rundir, deadline, base.digests, spans_dir)
    children = base.children + traced.children
    if not traced.complete:
        return {}, children
    values, context["absent"] = layer_metrics(spans_dir)
    values["trace.overhead_s"] = (traced.end_to_end()["pipeline_s"]
                                  - base.end_to_end()["pipeline_s"])
    values["events.n_events"], values["events.n_items"] = \
        corpus_counts(base.children[0])
    values["indices.n_states"] = len(traced.digests["g"])
    values["model_io.model_bytes"] = (rundir / "model.txt").stat().st_size
    values["evaluation.minutes"], values["evaluation.mean_active"] = \
        evaluation_counts(rundir / "report" / "series.csv")
    for c in base.children:
        values[f"cli.{c.name}.cpu_s"] = c.cpu_s
        values[f"cli.{c.name}.minflt"] = c.minflt
        values[f"cli.{c.name}.rss_mb"] = c.rss_mb
    dense, dense_children = dense_chain_sweep(seed, rundir, deadline)
    values.update(dense)
    return values, children + dense_children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "feedrank" / "cli.py").is_file():
        print(f"error: no feedrank source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.monotonic()
    deadline = start + HARD_DEADLINE_S
    wl = WORKLOADS[args.workload]
    entry = json.loads((BENCH / "digests.json").read_text(encoding="utf-8")).get(
        args.workload, {})
    pinned = entry.get("digests") if entry.get("seed") == args.seed else None
    rundir = RUNS / f"{args.workload}-{os.getpid()}"
    steal_before, loop_before = steal_ticks(), python_loop_s()
    context = {"workload": args.workload, "seed": args.seed,
               "digests_pinned": pinned is not None}
    try:
        config = {"generator": {**wl.generator, "seed": args.seed}}
        setups = [set_up(rundir, config, deadline) for _ in range(SETUP_REPEATS)]
        context["context"] = run_context()
        if args.trace == 0:
            values, children = measure_end_to_end(wl, rundir, args.seconds, start,
                                                  pinned, context)
            if values:
                values["setup_s"] = statistics.median(setups)
            metric_units = END_TO_END
        else:
            values, children = measure_layers(wl, rundir, args.seed, deadline,
                                              pinned, context)
            metric_units = PER_LAYER
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    steal_after = steal_ticks()
    context["drift"] = {
        "python_loop_s": [loop_before, python_loop_s()],
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        "run_s": time.monotonic() - start,
    }
    emit(metric_units, values, children, context)
    return 0


if __name__ == "__main__":
    sys.exit(main())
