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

# numpy reads this when it loads, in a subcommand's first import. The only
# BLAS work is the indices sweep's matrix-vector products, a sequential pass
# over at most MAX_STATES states: more threads only add start-up cost to
# every process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import _GENERATOR_FIELDS, GeneratorConfig, RunConfig, load_config, with_overrides
from .errors import ConfigError, DataError, FeedrankError


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .events import serialize_event_log
    from .synth import generate_stream

    flags = {key: value for key, value in vars(args).items()
             if key in _GENERATOR_FIELDS and value is not None}
    gen = dataclasses.replace(cfg.generator or GeneratorConfig(), **flags)
    batch = generate_stream(gen)
    with open(cfg.events_path, "w", encoding="utf-8") as fh:
        serialize_event_log(batch, fh)
    n_posts = int((batch.kind == 0).sum())
    print(f"wrote {len(batch)} events ({n_posts} posts) to {cfg.events_path}")
    return 0


def cmd_fit(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .events import build_timelines, load_event_log
    from .model_io import fit_model, write_model

    bundle = fit_model(build_timelines(load_event_log(cfg.events_path)), cfg)
    write_model(bundle, cfg.model_path)
    print(f"fitted model on {bundle.meta['items_used']} items "
          f"({bundle.meta['events_used']} events) -> {cfg.model_path}")
    return 0


def cmd_indices(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .indices import compute_indices, format_rank_grid
    from .model_io import read_model, write_model

    bundle = read_model(cfg.model_path)
    bundle.index = compute_indices(bundle.model, bundle.space.reward)
    write_model(bundle, cfg.model_path)
    print(format_rank_grid(bundle.index.g, bundle.space.bins))
    print(bundle.index.sweep.describe())
    print(f"index table written to {cfg.model_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .evaluation import evaluate_run, write_header_text, write_series_csv, write_summary_csv
    from .events import build_timelines, load_event_log
    from .model_io import format_limits, read_model
    from .ranking import write_snapshots_csv

    bundle = read_model(cfg.model_path)
    if "index" in cfg.policies and bundle.index is None:
        raise ConfigError("model has no index table; run the indices subcommand first")
    if cfg.train_window is None:
        cfg = dataclasses.replace(cfg, train_window=bundle.train_window())
    space, g = bundle.space, None if bundle.index is None else bundle.index.g
    extra = {
        "beta": format(bundle.beta, ".17g"),
        "epsilon": format(bundle.epsilon, ".17g"),
        "novelty_limits": format_limits(space.bins.novelty_limits),
        "popularity_limits": format_limits(space.bins.popularity_limits),
    }
    del bundle  # evaluate needs neither chain: free p1 and p0 before the events load
    table = build_timelines(load_event_log(cfg.events_path))
    report = evaluate_run(table, space, g, cfg)
    os.makedirs(cfg.report_dir, exist_ok=True)
    write_series_csv(report, os.path.join(cfg.report_dir, "series.csv"))
    write_summary_csv(report, os.path.join(cfg.report_dir, "summary.csv"))
    write_header_text(report, os.path.join(cfg.report_dir, "header.txt"), extra)
    if cfg.dump_snapshots:
        write_snapshots_csv(table, report.policies, report.rankings,
                            os.path.join(cfg.report_dir, "snapshots.csv"))
    print(f"evaluated {len(report.minutes)} minutes "
          f"({report.skipped_empty} empty skipped) -> {cfg.report_dir}")
    return 0


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


# Every flag: the RunConfig or GeneratorConfig field it sets, its type, its help.
_FLAGS = {
    "--events": ("events_path", str, "event log path"),
    "--model": ("model_path", str, "model file path"),
    "--report-dir": ("report_dir", str, "report directory"),
    "--seed": ("seed", int, "generator seed"),
    "--days": ("days", int, "days to simulate"),
    "--accounts": ("n_accounts", int, "accounts to simulate"),
    "--posts-per-day": ("posts_per_day", float, "weekday mean posts per account"),
    "--train-window": ("train_window", str, "START:END minutes or dates"),
    "--eval-window": ("eval_window", str, "START:END minutes or dates"),
    "--beta": ("beta", float, "discount factor in (0, 1)"),
    "--epsilon": ("epsilon", float, "hidden-clock speed in [0, 1]"),
    "--novelty-limits": ("novelty_limits", str, "comma-separated ages"),
    "--n-popularity-bins": ("n_popularity_bins", int, "popularity bins per age bin"),
    "--peak-hours": ("peak_hours", str, "UTC hours, e.g. 12-1"),
    "--smoothing": ("smoothing", float, "added to every transition count"),
    "--policies": ("policies", str, "comma-separated policy names"),
    "--signals": ("signals", str, "comma-separated signal names"),
    "--interval": ("decision_interval", int, "minutes between decisions"),
    "--horizon": ("horizon", int, "minutes after its post an item is ranked"),
    "--relevance-cap": ("relevance_cap", int, "cap on an attention signal's relevance"),
    "--dump-snapshots": ("dump_snapshots", bool, "also write snapshots.csv"),
}

# Each subcommand: its function, help, flags in usage order, and the flags
# it needs, checked before any input is opened.
_COMMANDS = {
    "simulate": (cmd_simulate, "write a synthetic event stream",
                 ("--events", "--seed", "--days", "--accounts", "--posts-per-day"), ("--events",)),
    "fit": (cmd_fit, "fit bins, rewards, and transitions",
            ("--events", "--model", "--train-window", "--beta", "--epsilon", "--novelty-limits",
             "--n-popularity-bins", "--peak-hours", "--smoothing"),
            ("--events", "--model", "--train-window")),
    "indices": (cmd_indices, "compute priority indices into the model", ("--model",), ("--model",)),
    "evaluate": (cmd_evaluate, "score policies against signals",
                 ("--events", "--model", "--report-dir", "--eval-window", "--train-window",
                  "--policies", "--signals", "--peak-hours", "--interval", "--horizon",
                  "--relevance-cap", "--dump-snapshots"),
                 ("--events", "--model", "--report-dir", "--eval-window")),
    "report": (cmd_report, "pretty-print a written report", ("--report-dir",), ("--report-dir",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: one line, exit 1
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="feedrank",
                     description="dual-speed restless-bandit feed ranking pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, about, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON config file")
        for flag in flags:
            field, kind, text = _FLAGS[flag]
            p.add_argument(flag, dest=field, help=text, **(
                {"action": "store_true", "default": None} if kind is bool else {"type": kind}))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command, _, _, required = _COMMANDS[args.command]
        cfg = with_overrides(load_config(args.config) if args.config else RunConfig(), vars(args))
        missing = [flag for flag in required if getattr(cfg, _FLAGS[flag][0]) is None]
        if missing:
            raise ConfigError(f"{args.command} needs " + ", ".join(
                f"{flag} (config key {_FLAGS[flag][0]})" for flag in missing))
        return command(args, cfg)
    except SystemExit:  # only --help exits the parser; a usage error raises ConfigError
        return 0
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
