"""Command-line pipeline: simulate, fit, indices, evaluate, report.

Every subcommand takes ``--config`` (a JSON file mirroring RunConfig)
and flags that override individual values. Outputs are deterministic:
rerunning a subcommand with the same inputs writes byte-identical
files. Exit codes: 0 success, 1 usage or config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from .config import RunConfig, load_config, with_overrides
from .errors import ConfigError, DataError, FeedrankError
from .evaluation import (
    evaluate_run, write_header_text, write_series_csv, write_summary_csv,
)
from .events import build_timelines, load_event_log, serialize_event_log
from .indices import compute_indices, format_rank_grid
from .model_io import fit_model, format_limits, read_model, write_model
from .ranking import write_snapshots_csv
from .synth import GeneratorConfig, generate_stream


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    flags = {key: getattr(args, key) for key in ("seed", "days", "n_accounts", "posts_per_day")
             if getattr(args, key) is not None}
    gen = dataclasses.replace(cfg.generator or GeneratorConfig(), **flags)
    batch = generate_stream(gen)
    with open(cfg.events_path, "w", encoding="utf-8") as fh:
        serialize_event_log(batch, fh)
    n_posts = int((batch.kind == 0).sum())
    print(f"wrote {len(batch)} events ({n_posts} posts) to {cfg.events_path}")
    return 0


def cmd_fit(args: argparse.Namespace, cfg: RunConfig) -> int:
    bundle = fit_model(build_timelines(load_event_log(cfg.events_path)), cfg)
    write_model(bundle, cfg.model_path)
    print(f"fitted model on {bundle.meta['items_used']} items "
          f"({bundle.meta['events_used']} events) -> {cfg.model_path}")
    return 0


def cmd_indices(args: argparse.Namespace, cfg: RunConfig) -> int:
    bundle = read_model(cfg.model_path)
    bundle.index = compute_indices(bundle.transition_model(), bundle.state_space().reward)
    write_model(bundle, cfg.model_path)
    print(format_rank_grid(bundle.index, bundle.bins))
    print(bundle.index.sweep.describe())
    print(f"index table written to {cfg.model_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    bundle = read_model(cfg.model_path)
    if "index" in cfg.policies and bundle.index is None:
        raise ConfigError("model has no index table; run the indices subcommand first")
    if cfg.train_window is None:
        cfg = dataclasses.replace(cfg, train_window=bundle.train_window())
    table = build_timelines(load_event_log(cfg.events_path))
    report = evaluate_run(table, bundle.state_space(), bundle.index, cfg)
    os.makedirs(cfg.report_dir, exist_ok=True)
    extra = {
        "beta": format(bundle.beta, ".17g"),
        "epsilon": _describe_epsilon(bundle.epsilon),
        "novelty_limits": format_limits(bundle.bins.novelty_limits),
        "popularity_limits": format_limits(bundle.bins.popularity_limits),
    }
    write_series_csv(report, os.path.join(cfg.report_dir, "series.csv"))
    write_summary_csv(report, os.path.join(cfg.report_dir, "summary.csv"))
    write_header_text(report, os.path.join(cfg.report_dir, "header.txt"), extra)
    if cfg.dump_snapshots:
        write_snapshots_csv(table, report.policies, report.rankings,
                            os.path.join(cfg.report_dir, "snapshots.csv"))
    print(f"evaluated {len(report.minutes)} minutes "
          f"({report.skipped_empty} empty skipped) -> {cfg.report_dir}")
    return 0


def _describe_epsilon(epsilon: np.ndarray) -> str:
    values = set(float(v) for v in epsilon)
    if len(values) == 1:
        return format(values.pop(), ".17g")
    return "per-state"


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    summary_path = os.path.join(cfg.report_dir, "summary.csv")
    header_path = os.path.join(cfg.report_dir, "header.txt")
    try:
        with open(header_path, "r", encoding="utf-8") as fh:
            header_text = fh.read().rstrip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {header_path}: {exc}") from exc
    try:
        with open(summary_path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {summary_path}: {exc}") from exc
    if not rows:
        raise DataError(f"{summary_path} is empty")
    header, body = rows[0], rows[1:]
    policies = [h[:-5] for h in header[1:] if h.endswith("_mean")]
    lines = [f"{'signal':<18}" + "".join(f"{p:>22}" for p in policies)]
    for lineno, row in enumerate(body, start=2):
        if len(row) < 1 + 2 * len(policies):
            raise DataError(f"{summary_path} line {lineno} holds {len(row)} cells, "
                            f"expected {1 + 2 * len(policies)}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise DataError(f"{summary_path} line {lineno}: {exc}") from exc
        lines.append(f"{row[0]:<18}" + "".join(
            f"{mean:>13.4f} +- {std:5.4f}" for mean, std in zip(values[::2], values[1::2])))
    print(header_text)
    print()
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedrank",
        description="dual-speed restless-bandit feed ranking pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")

    p_sim = sub.add_parser("simulate", help="write a synthetic event stream")
    add_common(p_sim)
    p_sim.add_argument("--events", dest="events_path", help="output event log path")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--days", type=int)
    p_sim.add_argument("--accounts", dest="n_accounts", type=int)
    p_sim.add_argument("--posts-per-day", dest="posts_per_day", type=float)

    p_fit = sub.add_parser("fit", help="fit bins, rewards, and transitions")
    add_common(p_fit)
    p_fit.add_argument("--events", dest="events_path")
    p_fit.add_argument("--model", dest="model_path", help="output model path")
    p_fit.add_argument("--train-window", dest="train_window", help="START:END minutes or dates")
    p_fit.add_argument("--beta", type=float)
    p_fit.add_argument("--epsilon", type=float)
    p_fit.add_argument("--novelty-limits", dest="novelty_limits", help="comma-separated ages")
    p_fit.add_argument("--n-popularity-bins", dest="n_popularity_bins", type=int)
    p_fit.add_argument("--peak-hours", dest="peak_hours", help="UTC hours, e.g. 12-1")
    p_fit.add_argument("--smoothing", type=float)

    p_idx = sub.add_parser("indices", help="compute priority indices into the model")
    add_common(p_idx)
    p_idx.add_argument("--model", dest="model_path")

    p_eval = sub.add_parser("evaluate", help="score policies against signals")
    add_common(p_eval)
    p_eval.add_argument("--events", dest="events_path")
    p_eval.add_argument("--model", dest="model_path")
    p_eval.add_argument("--report-dir", dest="report_dir")
    p_eval.add_argument("--eval-window", dest="eval_window", help="START:END minutes or dates")
    p_eval.add_argument("--train-window", dest="train_window", help="for the overlap warning")
    p_eval.add_argument("--policies", help="comma-separated policy names")
    p_eval.add_argument("--signals", help="comma-separated signal names")
    p_eval.add_argument("--peak-hours", dest="peak_hours")
    p_eval.add_argument("--interval", dest="decision_interval", type=int)
    p_eval.add_argument("--horizon", type=int)
    p_eval.add_argument("--relevance-cap", dest="relevance_cap", type=int)
    p_eval.add_argument("--dump-snapshots", dest="dump_snapshots", action="store_true",
                        default=None)

    p_rep = sub.add_parser("report", help="pretty-print a written report")
    add_common(p_rep)
    p_rep.add_argument("--report-dir", dest="report_dir")

    return parser


# Each subcommand and the RunConfig fields it needs, checked before any input is opened.
_COMMANDS = {
    "simulate": (cmd_simulate, ("events_path",)),
    "fit": (cmd_fit, ("events_path", "model_path")),
    "indices": (cmd_indices, ("model_path",)),
    "evaluate": (cmd_evaluate, ("events_path", "model_path", "report_dir", "eval_window")),
    "report": (cmd_report, ("report_dir",)),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; fold usage
        # errors into exit code 1 per our convention.
        return 0 if exc.code == 0 else 1
    command, required = _COMMANDS[args.command]
    try:
        cfg = with_overrides(load_config(args.config) if args.config else RunConfig(), vars(args))
        missing = [name for name in required if getattr(cfg, name) is None]
        if missing:  # each field's flag is its name without ``_path``, dashed
            raise ConfigError(f"{args.command} needs " + ", ".join(
                f"--{name.removesuffix('_path').replace('_', '-')} (config key {name})"
                for name in missing))
        return command(args, cfg)
    except OSError as exc:  # every read wraps its own, so this one is from an output
        error = DataError(f"cannot write {exc.filename or 'output'}: {exc.strerror or exc}")
    except FeedrankError as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return error.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
