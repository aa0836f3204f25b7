"""Tests of the benchmark's tracer and output check.

    python3 -m pytest bench
"""

import json
import sys
import time
import types

import numpy as np
import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))


def test_self_time_is_total_minus_direct_children():
    # a [0, 100) holds b [10, 30) and c [40, 70); c holds d [45, 50).
    names = ["a", "b", "c", "d"]
    columns = {
        "name_id": np.array([0, 1, 2, 3], dtype=np.int16),
        "parent": np.array([-1, 0, 0, 2], dtype=np.int32),
        "start": np.array([0, 10, 40, 45], dtype=np.int64),
        "end": np.array([100, 30, 70, 50], dtype=np.int64),
    }
    stats = tracer.span_stats(names, columns)
    assert stats["a"]["self_s"] * 1e9 == pytest.approx(100 - 20 - 30)
    assert stats["c"]["self_s"] * 1e9 == pytest.approx(30 - 5)
    assert stats["d"]["self_s"] == stats["d"]["total_s"]
    assert [stats[n]["calls"] for n in names] == [1, 1, 1, 1]


def test_wrapped_calls_nest_and_round_trip(tmp_path):
    t = tracer.Tracer()

    def inner():
        time.sleep(0.002)

    inner = t.wrap("inner", inner)

    def outer():
        inner()
        inner()
        time.sleep(0.002)

    outer = t.wrap("outer", outer)
    outer()
    path = tmp_path / "spans"
    t.write(path, absent=["gone.fn"])
    header, columns = tracer.read_spans(path)
    assert header["absent"] == ["gone.fn"]
    stats = tracer.span_stats(header["names"], columns)
    assert stats["inner"]["calls"] == 2
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"], abs=1e-9)
    assert stats["outer"]["self_s"] >= 0.002


def test_install_rebinds_every_module_binding(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    a.f = f
    b.f = f  # as after ``from .a import f``
    exec("def g(x):\n    return f(x) * 2\n", b.__dict__)
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    t = tracer.Tracer()
    absent = tracer.install(t, ["a.f", "a.missing", "nomodule.h"], package="fakepkg")
    assert absent == ["a.missing", "nomodule.h"]
    assert a.f is b.f and a.f is not f
    assert b.g(1) == 4
    assert list(t.columns["name_id"]) == [0]


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_tiny_corpus_passes_the_output_check(tmp_path):
    wl = run.Workload({"n_accounts": 2, "days": 3, "posts_per_day": 25.0},
                      "0:2880", "2880:3240")
    deadline = time.monotonic() + 120
    rundir = tmp_path / "run"
    run.set_up(rundir, {"generator": {**wl.generator, "seed": 5}}, deadline)

    first = run.run_pipeline(wl, rundir, deadline, None)
    assert first.complete
    assert set(first.digests) == {"events.jsonl", "p1", "reward", "g", "series.csv",
                                  "summary.csv", "header.txt", "report.stdout"}
    n_events, n_items = run.corpus_counts(first.children[0])
    assert n_events == len((rundir / "events.jsonl").read_text().splitlines())
    assert 0 < n_items < n_events

    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    traced = run.run_pipeline(wl, rundir, deadline, first.digests, spans_dir)
    assert traced.complete
    values, absent = run.layer_metrics(spans_dir)
    assert absent == []
    assert values["indices.occupancy.calls"] == len(first.digests["g"])
    assert values["states.classify.calls"] > 0

    tampered = {**first.digests, "summary.csv": "0" * 64}
    bad = run.run_pipeline(wl, rundir, deadline, tampered)
    assert [c.ok for c in bad.children] == [True, True, True, False]
    assert "summary.csv" in bad.children[-1].problem


def test_metrics_of_a_missing_function_are_marked_absent(capsys):
    values = {name: 1.0 for name in run.PER_LAYER}
    values.update({"ranking.rank_items.calls": 0, "ranking.rank_items.self_s": 0.0})
    run.emit(run.PER_LAYER, values, [], {"absent": ["ranking.rank_items"]})
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    marked = sorted(k for k, v in result["metrics"].items() if v.get("absent"))
    assert marked == sorted(f"ranking.rank_items.{stat}" for fn, stat in run.SPAN_METRICS
                            if fn == "ranking.rank_items")
    assert len(result["metrics"]) == len(run.PER_LAYER)
