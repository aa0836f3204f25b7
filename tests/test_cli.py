import argparse
import collections
import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feedrank import evaluation, indices
from feedrank.cli import build_parser, main
from feedrank.config import MAX_MINUTES, RunConfig, parse_field
from feedrank.errors import ConfigError
from feedrank.events import build_timelines, load_event_log
from feedrank.model_io import fit_model, read_model
from feedrank.synth import PEAK_HOURS, GeneratorConfig
from oracles import greedy_indices_reference


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate -> fit -> indices -> evaluate run shared by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    events = str(root / "events.jsonl")
    model = str(root / "model.txt")
    report = str(root / "report")
    assert main(["simulate", "--events", events, "--seed", "11",
                 "--days", "3", "--accounts", "2",
                 "--posts-per-day", "25"]) == 0
    assert main(["fit", "--events", events, "--model", model,
                 "--train-window", "0:2880"]) == 0
    assert main(["indices", "--model", model]) == 0
    assert main(["evaluate", "--events", events, "--model", model,
                 "--report-dir", report, "--eval-window", "2880:3240",
                 "--train-window", "0:2880"]) == 0
    return {"root": root, "events": events, "model": model, "report": report}


def test_simulate_writes_parseable_log(pipeline):
    with open(pipeline["events"]) as fh:
        first = json.loads(fh.readline())
    assert first["kind"] == "post"


def test_fit_records_metadata(pipeline):
    bundle = read_model(pipeline["model"])
    assert bundle.meta["train_window"] == "[0, 2880)"
    assert int(bundle.meta["items_used"]) > 0
    assert bundle.bins.n_states == 101


def test_indices_stores_table_and_prints_grid(pipeline, capsys):
    bundle = read_model(pipeline["model"])
    assert bundle.index is not None
    assert len(bundle.index.g) == 101
    assert main(["indices", "--model", pipeline["model"]]) == 0
    out = capsys.readouterr().out
    assert "state 0 rank:" in out


def test_indices_match_the_reference_sweep(pipeline):
    bundle = read_model(pipeline["model"])
    model, reward = bundle.transition_model(), bundle.state_space().reward
    g, _, y_values = greedy_indices_reference(model.p1, model.p0, model.beta, reward)
    table = indices.compute_indices(model, reward)
    assert np.abs(table.g - g).max() <= 1e-10
    assert np.abs(table.sweep.y_values - y_values).max() <= 1e-12
    assert np.abs(bundle.index.g - g).max() <= 1e-10


def test_indices_prints_sweep_diagnostics_but_does_not_store_them(pipeline, tmp_path, capsys):
    model = tmp_path / "model.txt"
    shutil.copy(pipeline["model"], model)
    assert main(["indices", "--model", str(model)]) == 0
    lines = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"sweep: smallest A = 1 \(state 0, step 0\), smallest pivot = (\S+), "
                         r"largest residual = (\S+), 0 refinements, 0 refactorizations",
                         lines[-2])
    # The fixture's unobserved, absorbing rows make no update, so they
    # cannot pin the smallest pivot at exactly 1.
    assert match and 1 < float(match[1]) < 2, lines[-2]
    assert 0 <= float(match[2]) <= 1e-10 / (1 - 0.9), lines[-2]
    assert lines[-3].startswith("state 0 rank:")
    text = model.read_text()
    assert text.startswith("# feedrank model, format v4\n")
    assert "sweep" not in text and "refine" not in text
    assert read_model(str(model)).index.sweep is None


def test_indices_exits_3_when_the_residual_cannot_be_met(pipeline, tmp_path, monkeypatch):
    model = tmp_path / "model.txt"
    shutil.copy(pipeline["model"], model)
    monkeypatch.setattr(indices, "RESIDUAL_TOL_FACTOR", 0.0)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["indices", "--model", str(model)])
    assert code == 3
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: occupancy residual"), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert model.read_bytes() == open(pipeline["model"], "rb").read()


def test_evaluate_on_a_huge_window_lists_only_minutes_with_posts(pipeline, tmp_path):
    report = tmp_path / "huge"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "feedrank.cli", "evaluate", "--events", pipeline["events"],
         "--model", pipeline["model"], "--report-dir", str(report),
         "--eval-window", "0:100000000000", "--policies", "novelty"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - started < 30
    header = (report / "header.txt").read_text().splitlines()
    evaluated = int(next(line for line in header if line.startswith("minutes_evaluated")).split()[-1])
    assert 0 < evaluated < 5000
    assert f"minutes_skipped_empty = {100_000_000_000 - evaluated}" in header


def test_evaluate_accepts_values_at_the_minute_bound(pipeline, tmp_path):
    bound = str(MAX_MINUTES)
    for window, evaluated in ((f"-{bound}:{bound}", 0), (f"2880:{bound}", 1)):
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(["evaluate", "--events", pipeline["events"], "--model", pipeline["model"],
                         "--report-dir", str(tmp_path / "r"), f"--eval-window={window}",
                         "--horizon", bound, "--interval", bound])
        assert code == 0 and err.getvalue() == "", err.getvalue()
        assert out.getvalue().startswith(f"evaluated {evaluated} minutes"), out.getvalue()


def _limit_address_space():
    limit = 3 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_evaluate_refuses_more_entries_than_it_may_hold(tmp_path):
    # 120 posts active for a billion minutes each: about 1.2e11 entries.
    events, model = str(tmp_path / "e.jsonl"), str(tmp_path / "m.txt")
    assert main(["simulate", "--events", events, "--seed", "11", "--days", "3",
                 "--accounts", "2", "--posts-per-day", "20"]) == 0
    assert main(["fit", "--events", events, "--model", model, "--train-window", "0:2880"]) == 0
    assert main(["indices", "--model", model]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "feedrank.cli", "evaluate", "--events", events, "--model", model,
         "--report-dir", str(tmp_path / "r"), "--eval-window", "0:100000000000",
         "--horizon", "1000000000"],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_address_space)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1 and len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ") and "--horizon" in lines[0], proc.stderr


def test_simulate_refuses_a_generator_key_that_is_a_constant(tmp_path):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"generator": {"start_day": 3}}))
    proc = subprocess.run(
        [sys.executable, "-m", "feedrank.cli", "simulate", "--config", str(cfg_path),
         "--events", str(tmp_path / "e.jsonl")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: unknown generator key(s): start_day"]
    assert not (tmp_path / "e.jsonl").exists()


def test_evaluate_writes_reports(pipeline):
    report = pipeline["report"]
    series = open(f"{report}/series.csv").read()
    summary = open(f"{report}/summary.csv").read()
    header = open(f"{report}/header.txt").read()
    assert series.startswith("minute,policy,signal,ndcg,active_count")
    assert summary.splitlines()[0] == (
        "signal,index_mean,index_std,novelty_mean,novelty_std,"
        "popularity_mean,popularity_std")
    assert "pearson_active[index,utility] = " in header
    assert "eval_window = [2880, 3240)" in header


def test_report_prints_summary(pipeline, capsys):
    assert main(["report", "--report-dir", pipeline["report"]]) == 0
    out = capsys.readouterr().out
    assert "utility" in out
    assert "index" in out


def test_report_loads_no_numpy(pipeline):
    code = ("import sys; from feedrank.cli import main; "
            f"code = main(['report', '--report-dir', {pipeline['report']!r}]); "
            "print(code, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_the_model_file_does_not_depend_on_the_hosts_blas_threads(tmp_path):
    # The sweep's inverse rounds differently on two BLAS threads than on one
    # (on this model, with OpenBLAS 0.3.31), so g's last bits would follow the
    # host's core count or a preset OPENBLAS_NUM_THREADS; the CLI pins one thread.
    events, model = str(tmp_path / "events.jsonl"), str(tmp_path / "model.txt")
    assert main(["simulate", "--events", events, "--seed", "5", "--days", "3",
                 "--accounts", "6", "--posts-per-day", "30"]) == 0
    assert main(["fit", "--events", events, "--model", model, "--train-window", "0:2880"]) == 0
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    models = {}
    for threads in (None, "1", "2"):
        models[threads] = tmp_path / f"model-{threads}.txt"
        shutil.copy(model, models[threads])
        subprocess.run([sys.executable, "-m", "feedrank.cli", "indices",
                        "--model", str(models[threads])],
                       env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
                       capture_output=True, check=True, timeout=120)
    assert models[None].read_bytes() == models["1"].read_bytes() == models["2"].read_bytes()


def test_outputs_are_byte_identical_across_runs(pipeline, tmp_path):
    events2 = str(tmp_path / "events.jsonl")
    model2 = str(tmp_path / "model.txt")
    report2 = str(tmp_path / "report")
    assert main(["simulate", "--events", events2, "--seed", "11",
                 "--days", "3", "--accounts", "2",
                 "--posts-per-day", "25"]) == 0
    assert open(events2, "rb").read() == open(pipeline["events"], "rb").read()
    assert main(["fit", "--events", events2, "--model", model2,
                 "--train-window", "0:2880"]) == 0
    assert main(["indices", "--model", model2]) == 0
    assert open(model2, "rb").read() == open(pipeline["model"], "rb").read()
    assert main(["evaluate", "--events", events2, "--model", model2,
                 "--report-dir", report2, "--eval-window", "2880:3240",
                 "--train-window", "0:2880"]) == 0
    for name in ("series.csv", "summary.csv", "header.txt"):
        assert open(f"{report2}/{name}", "rb").read() == \
            open(f"{pipeline['report']}/{name}", "rb").read()


def test_config_file_drives_a_run(tmp_path, pipeline):
    cfg = {
        "events_path": pipeline["events"],
        "model_path": str(tmp_path / "m.txt"),
        "train_window": [0, 2880],
        "epsilon": 0.2,
        "beta": 0.8,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["fit", "--config", str(cfg_path)]) == 0
    bundle = read_model(cfg["model_path"])
    assert bundle.beta == 0.8
    assert bundle.epsilon == 0.2
    # Flags override the file.
    assert main(["fit", "--config", str(cfg_path), "--beta", "0.5"]) == 0
    assert read_model(cfg["model_path"]).beta == 0.5


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"events_path": "x", "learning_rate": 1}))
    assert main(["fit", "--config", str(cfg_path)]) == 1


def test_peak_hours_fit_changes_model(tmp_path, pipeline):
    model_peak = str(tmp_path / "peak.txt")
    assert main(["fit", "--events", pipeline["events"], "--model", model_peak,
                 "--train-window", "0:2880", "--peak-hours", "12-1"]) == 0
    peak = read_model(model_peak)
    full = read_model(pipeline["model"])
    assert peak.meta["peak_hours"] == "0,1,12,13,14,15,16,17,18,19,20,21,22,23"
    assert int(peak.meta["items_used"]) < int(full.meta["items_used"])


def test_library_fit_records_the_hour_set_of_the_flag(pipeline):
    table = build_timelines(load_event_log(pipeline["events"]))
    bundle = fit_model(table, RunConfig(train_window=(0, 2880), peak_hours=PEAK_HOURS))
    assert bundle.meta["peak_hours"] == "0,1,12,13,14,15,16,17,18,19,20,21,22,23"


def test_exit_codes(capsys):
    assert main([]) == 1                        # no subcommand
    assert capsys.readouterr().err.splitlines() == [
        "error: the following arguments are required: command"]
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    assert main(["frobnicate"]) == 1            # unknown subcommand
    assert main(["fit", "--events", "/no/such/file", "--model", "/tmp/x",
                 "--train-window", "0:100"]) == 2
    assert main(["fit", "--model", "/tmp/x"]) == 1          # missing flags
    assert main(["indices", "--model", "/no/such/model"]) == 2
    assert main(["evaluate", "--events", "e", "--model", "m"]) == 1
    assert main(["report", "--report-dir", "/no/such/dir"]) == 2


# Each subcommand's flags, in usage order.
_SURFACE = {
    "simulate": ("--events", "--seed", "--days", "--accounts", "--posts-per-day"),
    "fit": ("--events", "--model", "--train-window", "--beta", "--epsilon", "--novelty-limits",
            "--n-popularity-bins", "--peak-hours", "--smoothing"),
    "indices": ("--model",),
    "evaluate": ("--events", "--model", "--report-dir", "--eval-window", "--train-window",
                 "--policies", "--signals", "--peak-hours", "--interval", "--horizon",
                 "--relevance-cap", "--dump-snapshots"),
    "report": ("--report-dir",),
}
# Each flag: its field, a value as typed (None: the flag takes none) and as parsed.
_FLAG_VALUES = {
    "--events": ("events_path", "e.jsonl", "e.jsonl"),
    "--model": ("model_path", "m.txt", "m.txt"),
    "--report-dir": ("report_dir", "r", "r"),
    "--seed": ("seed", "7", 7),
    "--days": ("days", "3", 3),
    "--accounts": ("n_accounts", "2", 2),
    "--posts-per-day": ("posts_per_day", "2.5", 2.5),
    "--train-window": ("train_window", "0:10", "0:10"),
    "--eval-window": ("eval_window", "10:20", "10:20"),
    "--beta": ("beta", "0.5", 0.5),
    "--epsilon": ("epsilon", "0.25", 0.25),
    "--novelty-limits": ("novelty_limits", "1,5", "1,5"),
    "--n-popularity-bins": ("n_popularity_bins", "4", 4),
    "--peak-hours": ("peak_hours", "12-1", "12-1"),
    "--smoothing": ("smoothing", "0.5", 0.5),
    "--policies": ("policies", "index", "index"),
    "--signals": ("signals", "rt", "rt"),
    "--interval": ("decision_interval", "2", 2),
    "--horizon": ("horizon", "30", 30),
    "--relevance-cap": ("relevance_cap", "9", 9),
    "--dump-snapshots": ("dump_snapshots", None, True),
}


def test_every_flag_sets_its_field_and_only_its_subcommands_take_it(capsys):
    fields = {f.name for cls in (RunConfig, GeneratorConfig) for f in dataclasses.fields(cls)}
    assert {field for field, _, _ in _FLAG_VALUES.values()} <= fields

    def typed(namespace):
        return {key: (value, type(value)) for key, value in vars(namespace).items()}

    for command, flags in _SURFACE.items():
        unset = {_FLAG_VALUES[flag][0]: None for flag in flags}
        assert typed(build_parser().parse_args([command])) == typed(
            argparse.Namespace(command=command, config=None, **unset))
        argv = [command, "--config", "c.json"]
        for flag in flags:
            argv += [flag, *filter(None, [_FLAG_VALUES[flag][1]])]
        parsed = {_FLAG_VALUES[flag][0]: _FLAG_VALUES[flag][2] for flag in flags}
        assert typed(build_parser().parse_args(argv)) == typed(
            argparse.Namespace(command=command, config="c.json", **parsed))
        for flag in sorted(set(_FLAG_VALUES) - set(flags)):
            assert main([command, flag, *filter(None, [_FLAG_VALUES[flag][1]])]) == 1
            last = capsys.readouterr().err.splitlines()[-1]
            assert f"error: unrecognized arguments: {flag}" in last, (command, last)


def test_evaluate_requires_indices(tmp_path, pipeline):
    model_raw = str(tmp_path / "raw.txt")
    assert main(["fit", "--events", pipeline["events"], "--model", model_raw,
                 "--train-window", "0:2880"]) == 0
    code = main(["evaluate", "--events", pipeline["events"],
                 "--model", model_raw, "--report-dir", str(tmp_path / "r"),
                 "--eval-window", "2880:2940"])
    assert code == 1
    assert main(["evaluate", "--events", pipeline["events"],
                 "--model", model_raw, "--report-dir", str(tmp_path / "r"),
                 "--eval-window", "2880:2940",
                 "--policies", "novelty,popularity"]) == 0


def test_evaluate_warns_on_overlap(tmp_path, pipeline):
    report = str(tmp_path / "overlap")
    assert main(["evaluate", "--events", pipeline["events"],
                 "--model", pipeline["model"], "--report-dir", report,
                 "--eval-window", "2000:2100"]) == 0
    header = open(f"{report}/header.txt").read()
    # The train window is recovered from the model metadata.
    assert "warning: train window [0, 2880) overlaps" in header


def test_dump_snapshots(tmp_path, pipeline, monkeypatch):
    report = str(tmp_path / "snaps")
    passes = []
    monkeypatch.setattr(evaluation, "rank_window", lambda *args, _orig=evaluation.rank_window:
                        passes.append(args) or _orig(*args))
    assert main(["evaluate", "--events", pipeline["events"],
                 "--model", pipeline["model"], "--report-dir", report,
                 "--eval-window", "2880:2900", "--dump-snapshots"]) == 0
    lines = open(f"{report}/snapshots.csv").read().splitlines()
    assert lines[0] == "minute,policy,rank,item_id,state_index"
    assert len(lines) > 1
    # One row per active item, for every evaluated minute and policy.
    with open(f"{report}/series.csv") as fh:
        expected = {(row["minute"], row["policy"]): int(row["active_count"])
                    for row in csv.DictReader(fh)}
    with open(f"{report}/snapshots.csv") as fh:
        got = collections.Counter((row["minute"], row["policy"])
                                  for row in csv.DictReader(fh))
    assert dict(got) == expected
    # The snapshots come from the scored pass: one ranking batch per evaluate.
    assert len(passes) == 1


def _with_line(data, line):
    return data + line.encode() + b"\n"


def _set_first(data, key, value):
    """``data`` with the first value of the model line ``key = ...`` replaced."""
    return re.sub(rb"(?m)^(" + key + rb" = )[^,\n]*", rb"\g<1>" + value, data, count=1)


def _first_line_with(data, word):
    return next(line for line in data.splitlines(keepends=True) if word in line)


# Three lines, each invalid JSON, that a decode of the lines joined into
# one array would accept as three posts.
_JOINED_ONLY = (b'{"kind":"post","item_id":"a","event_id":"a","ts":0,"account":"x","z":[{"y":1}\n'
                b'{"w":2}]}\n'
                b'{"kind":"post","item_id":"b","event_id":"b","ts":0,"account":"x"},'
                b'{"kind":"post","item_id":"c","event_id":"c","ts":0,"account":"x"}\n')


@pytest.mark.parametrize("case,expected", [
    ({"config": {"beta": "0.9"}}, 1),
    ({"config": {"beta": True}}, 1),
    ({"config": {"novelty_limits": [1, "x"]}}, 1),
    ({"flags": ["--novelty-limits", "1,x"]}, 1),
    ({"flags": ["--peak-hours", "a-b"]}, 1),
    ({"flags": ["--peak-hours", "12-30"]}, 1),
    ({"flags": ["--beta", "1"]}, 1),
    ({"model": lambda b: b.replace(b"train_window = [0, 2880)", b"train_window = [a, b)")}, 2),
    ({"model": lambda b: b.replace(b"train_window = [0, 2880)", b"train_window = 5")}, 2),
    ({"simulate": True, "config": {"generator": {"days": "x"}}}, 1),
    ({"simulate": True, "flags": ["--posts-per-day", "nan"]}, 1),
    ({"simulate": True, "flags": ["--seed", "-1"]}, 1),
    ({"events": lambda b: b.replace(b"\n", b"\n\xff", 1)}, 2),
    ({"events": lambda b: b + _first_line_with(b, b'"retweet"')}, 2),
    ({"events": lambda b: _with_line(b, '{"kind":"post","item_id":"x","event_id":"x",'
                                        f'"ts":{10 ** 23},"account":"a"}}')}, 2),
    ({"events": lambda b: _with_line(b, '{"kind":"post","item_id":"x","event_id":"x",'
                                        f'"ts":{"1" * 5000},"account":"a"}}')}, 2),
    ({"events": lambda b: b + _JOINED_ONLY}, 2),
    ({"events": lambda b: _with_line(b, "[" * 100_000)}, 2),
    ({"model": lambda b: b.replace(b"\nbeta = ", b"\nbeta = 0.5\nbeta = ", 1)}, 2),
    ({"model": lambda b: b.replace(b"[p1]", b"[p\xff]")}, 2),
    ({"model": lambda b: _set_first(b, b"r_n", b"nan")}, 2),
    ({"model": lambda b: _set_first(b, b"epsilon", b"nan")}, 2),
    ({"model": lambda b: _set_first(b, b"beta", b"2")}, 2),
    ({"model": lambda b: _set_first(b, b"beta", b"1")}, 2),
    ({"model": lambda b: b.replace(b"format v4", b"format v2", 1)}, 2),
    ({"model": lambda b: b.replace(b"format v4", b"format v3", 1)}, 2),
    ({"model": lambda b: re.sub(rb"(?m)^epsilon = .*$", b"epsilon = 0.1,0.1", b)}, 2),
    ({"model": lambda b: b.split(b"\n", 1)[1]}, 2),
    ({"flags": ["--novelty-limits", "5,3"]}, 1),
    ({"evaluate": True, "flags": ["--policies", "index,index"]}, 1),
    ({"config": {"signals": []}}, 1),
    ({"config": b'{"beta": "\xff"}'}, 1),
    ({"config": b'{"beta": ' + b"1" * 5000 + b"}"}, 1),
    ({"config": b"[" * 100_000}, 1),
    ({"report": {"header.txt": lambda b: b"\xff" + b}}, 2),
    ({"report": {"summary.csv": lambda b: b.replace(b"utility,", b"utility,x", 1)}}, 2),
    ({"report": {"summary.csv": lambda b: b + b"rt,0.5\n"}}, 2),
    ({"evaluate": True, "flags": ["--horizon", "99999999999999999999"]}, 1),
    ({"evaluate": True, "flags": ["--horizon", "9223372036854775000"]}, 1),
    ({"evaluate": True, "flags": ["--interval", "99999999999999999999"]}, 1),
    ({"evaluate": True, "flags": ["--eval-window", "2880:99999999999999999999"]}, 1),
    ({"evaluate": True, "config": {"horizon": 99999999999999999999}}, 1),
    ({"evaluate": True, "config": {"decision_interval": 99999999999999999999}}, 1),
    ({"evaluate": True, "config": {"eval_window": [2880, 99999999999999999999]}}, 1),
    ({"flags": ["--n-popularity-bins", "1000000000"]}, 1),
    ({"config": {"n_popularity_bins": 1000000000}}, 1),
    ({"flags": ["--novelty-limits", ",".join(map(str, range(1, 4098)))]}, 1),
    ({"model": lambda b: re.sub(rb"(?m)^popularity_limits = .*$", b"popularity_limits = "
                                + ",".join(map(str, range(410))).encode() + b",inf", b)}, 2),
    ({"config": {"relevance_cap": 5000}}, 1),
    # One above the largest cap: a minute of MAX_ENTRIES saturated gains would overflow.
    ({"evaluate": True, "flags": ["--relevance-cap", "999"]}, 1),
    ({"flags": ["--smoothing", "1e308"]}, 1),
    ({"config": {"smoothing": 1e308}}, 1),
    ({"simulate": True, "output": "missing/e.jsonl"}, 2),
    ({"output": "missing/m.txt"}, 2),
    # The report dir is the edited log's own path: an existing file.
    ({"evaluate": True, "events": lambda b: b, "output": "e.jsonl"}, 2),
    # A missing field is refused before any input is read.
    ({"evaluate": True, "events": None, "eval_window": []}, 1),
    ({"events": None, "train_window": []}, 1),
    ({"simulate": True, "flags": ["--posts-per-day", "1e19"]}, 1),
    ({"simulate": True, "flags": ["--posts-per-day", "1e12"]}, 1),
    ({"simulate": True, "config": {"generator": {"magnitude_cap": 10 ** 12}}}, 1),
    # Within every other bound, yet one boosted retweet draw would ask for gigabytes.
    ({"simulate": True, "config": {"generator": {
        "days": 1, "n_accounts": 1, "posts_per_day": 20, "zero_fraction": 0, "alpha": 1.01,
        "peak_magnitude_scale": 1000}}}, 1),
    ({"simulate": True, "config": {"generator": {"peak_magnitude_scale": 1e300}}}, 1),
    # Within every other bound, yet about 26M retweets expected.
    ({"simulate": True, "config": {"generator": {
        "days": 1, "n_accounts": 40, "posts_per_day": 10, "zero_fraction": 0, "alpha": 1.01}}}, 1),
    ({"simulate": True, "flags": ["--days", "1000000000", "--posts-per-day", "0"]}, 1),
    ({"flags": ["--beta", "abc"]}, 1),
    ({"evaluate": True, "flags": ["--horizon", "1.5"]}, 1),
    ({"flags": ["--bogus"]}, 1),
    ({"argv": ["frobnicate"]}, 1),
], ids=["config-beta-string", "config-beta-bool", "config-novelty-limits",
        "flag-novelty-limits", "flag-peak-hours", "flag-peak-hours-range",
        "flag-beta-1", "meta-window-letters", "meta-window-no-comma",
        "config-generator-days", "flag-posts-per-day-nan", "flag-seed-negative",
        "events-not-utf8", "events-repeated-retweet", "events-ts-too-large",
        "events-int-5000-digits", "events-valid-only-joined", "events-nested-too-deeply",
        "model-duplicate-key",
        "model-not-utf8", "model-r_n-nan", "model-epsilon-nan", "model-beta-2",
        "model-beta-1", "model-format-v2", "model-format-v3", "model-epsilon-per-state",
        "model-no-header", "flag-novelty-limits-order",
        "flag-policies-repeated", "config-signals-empty", "config-not-utf8",
        "config-int-5000-digits", "config-nested-too-deeply", "header-not-utf8",
        "summary-non-numeric", "summary-short-row", "flag-horizon-huge",
        "flag-horizon-near-int64-max", "flag-interval-huge", "flag-eval-window-huge",
        "config-horizon-huge", "config-interval-huge", "config-eval-window-huge",
        "flag-popularity-bins-huge", "config-popularity-bins-huge", "flag-novelty-limits-many",
        "model-too-many-states", "config-relevance-cap-huge", "flag-relevance-cap-999",
        "flag-smoothing-huge",
        "config-smoothing-huge", "simulate-events-unwritable", "fit-model-unwritable",
        "evaluate-report-dir-is-a-file", "evaluate-no-window-events-missing",
        "fit-no-window-events-missing", "flag-posts-per-day-1e19", "flag-posts-per-day-1e12",
        "config-magnitude-cap-huge", "config-peak-scale-large", "config-peak-scale-huge",
        "config-expected-retweets-huge",
        "flag-days-huge-no-posts", "flag-beta-not-a-number",
        "flag-horizon-not-an-integer", "flag-unknown", "subcommand-unknown"])
def test_bad_input_exits_with_one_error_line(case, expected, tmp_path, pipeline):
    def edited(name, src, edit):
        path = tmp_path / name
        path.write_bytes(edit(open(src, "rb").read()))
        return str(path)

    events = pipeline["events"]
    if case.get("events"):
        events = edited("e.jsonl", events, case["events"])
    elif "events" in case:
        events = str(tmp_path / "missing.jsonl")
    if "argv" in case:
        args = case["argv"]
    elif "report" in case:
        report = tmp_path / "report"
        shutil.copytree(pipeline["report"], report)
        for name, edit in case["report"].items():
            edited(f"report/{name}", report / name, edit)
        args = ["report", "--report-dir", str(report)]
    elif "model" in case or "evaluate" in case:
        model = (edited("m.txt", pipeline["model"], case["model"]) if "model" in case
                 else pipeline["model"])
        args = ["evaluate", "--events", events, "--model", model,
                "--report-dir", str(tmp_path / case.get("output", "r")),
                *case.get("eval_window", ["--eval-window", "2880:2940"]),
                *case.get("flags", [])]
    elif "simulate" in case:
        args = ["simulate", "--events", str(tmp_path / case.get("output", "e.jsonl")),
                *case.get("flags", [])]
    else:
        args = ["fit", "--events", events, "--model", str(tmp_path / case.get("output", "m.txt")),
                *case.get("train_window", ["--train-window", "0:2880"]), *case.get("flags", [])]
    if "config" in case:
        cfg_path = tmp_path / "run.json"
        config = case["config"]
        cfg_path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        args += ["--config", str(cfg_path)]
    # indices must refuse every model file that evaluate refuses.
    runs = [args, ["indices", "--model", model]] if "model" in case else [args]
    for run in runs:
        proc = subprocess.run([sys.executable, "-m", "feedrank.cli", *run],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, (run[0], proc.stderr)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def _corrupt(data, draw):
    """``data`` truncated, with one byte overwritten, or with a line repeated or dropped."""
    how = draw(st.sampled_from(["truncate", "overwrite", "duplicate", "drop"]))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "overwrite":
        pos = draw(st.integers(0, len(data) - 1))
        return data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1:]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if how == "duplicate":
        lines.insert(i, lines[i])
    else:
        del lines[i]
    return b"".join(lines)


@settings(max_examples=25, deadline=None)
@given(target=st.sampled_from(["events", "model"]), data=st.data())
def test_corrupted_inputs_end_in_one_error_line(pipeline, target, data):
    work = pipeline["root"] / "corrupted"
    work.mkdir(exist_ok=True)
    bad = work / target
    bad.write_bytes(_corrupt(open(pipeline[target], "rb").read(), data.draw))

    def run(*args):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(list(args))
        assert 0 <= code <= 3
        lines = err.getvalue().splitlines()
        if code:
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return code

    evaluate = ["evaluate", "--report-dir", str(work / "report"),
                "--eval-window", "2880:3240"]
    if target == "events":
        fitted = str(work / "fitted.txt")
        if run("fit", "--events", str(bad), "--model", fitted,
               "--train-window", "0:2880") == 0:
            run("indices", "--model", fitted)
        run(*evaluate, "--events", str(bad), "--model", pipeline["model"])
    else:
        run(*evaluate, "--events", pipeline["events"], "--model", str(bad))
        run("indices", "--model", str(bad))


_NUMBERS = st.floats() | st.sampled_from([0.0, 0.5, 1.0])
_COUNTS = st.integers(-2, 10 ** 6)
_NAMES = st.lists(st.sampled_from(["index", "novelty", "popularity", "utility", "rt",
                                   "rt_replies_favs", "x", ""]), max_size=4)
# RunConfig field -> (subcommand with a flag for it, the flag, values to draw).
_FLAGGED_FIELDS = {
    "beta": ("fit", "--beta", _NUMBERS),
    "epsilon": ("fit", "--epsilon", _NUMBERS),
    "smoothing": ("fit", "--smoothing", _NUMBERS),
    "n_popularity_bins": ("fit", "--n-popularity-bins", _COUNTS),
    "novelty_limits": ("fit", "--novelty-limits",
                       st.lists(_COUNTS | st.sampled_from(["x", ""]), max_size=5)),
    "horizon": ("evaluate", "--horizon", _COUNTS),
    "decision_interval": ("evaluate", "--interval", _COUNTS),
    "relevance_cap": ("evaluate", "--relevance-cap", _COUNTS),
    "policies": ("evaluate", "--policies", _NAMES),
    "signals": ("evaluate", "--signals", _NAMES),
}


def _flag_run(work, field, value, config=False):
    """Exit code of the subcommand of ``field`` given ``value`` by flag or config file.

    Its inputs are missing: a value the config accepts ends in exit 2 when
    the subcommand opens them, one it rejects in exit 1 before that."""
    command, flag, _ = _FLAGGED_FIELDS[field]
    args = [command, "--events", str(work / "missing.jsonl"),
            "--model", str(work / "missing.txt")]
    args += (["--train-window", "0:100"] if command == "fit" else
             ["--report-dir", str(work / "report"), "--eval-window", "0:100"])
    if config:
        cfg_path = work / "run.json"
        cfg_path.write_text(json.dumps({field: value}))
        args += ["--config", str(cfg_path)]
    else:
        text = ",".join(map(str, value)) if isinstance(value, list) else repr(value)
        args.append(f"{flag}={text}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    assert code in (1, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(_FLAGGED_FIELDS)), data=st.data())
def test_flag_and_config_accept_the_same_values(tmp_path_factory, field, data):
    value = data.draw(_FLAGGED_FIELDS[field][2])
    work = tmp_path_factory.getbasetemp() / "flag-vs-config"
    work.mkdir(exist_ok=True)
    assert _flag_run(work, field, value) == _flag_run(work, field, value, config=True), \
        (field, value)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(_FLAGGED_FIELDS)), data=st.data())
def test_config_built_in_code_refuses_what_the_flag_refuses(tmp_path_factory, field, data):
    value = data.draw(_FLAGGED_FIELDS[field][2])
    work = tmp_path_factory.getbasetemp() / "flag-vs-code"
    work.mkdir(exist_ok=True)
    try:
        RunConfig(**{field: parse_field(field, value)})
        refused = False
    except ConfigError:
        refused = True
    assert refused == (_flag_run(work, field, value) == 1), (field, value)


def test_config_built_in_code_is_checked(pipeline):
    for bad in ({"n_popularity_bins": 10 ** 8}, {"horizon": 0}, {"beta": 1.0},
                {"smoothing": 1e308}, {"horizon": 0, "policies": ("chrono",)},
                {"eval_window": (0, 2 ** 61)}, {"peak_hours": (12, 24)}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    table = build_timelines(load_event_log(pipeline["events"]))
    start = time.perf_counter()
    with pytest.raises(ConfigError):  # the fit would never end
        fit_model(table, RunConfig(train_window=(0, 1440), n_popularity_bins=10 ** 8))
    assert time.perf_counter() - start < 1.0
