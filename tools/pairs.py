"""Run the benchmark on two source trees in alternating pairs and compare them.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload W [--workload W2]
        [--pairs 10] [--seconds 55] --out FILE

Each pair runs ``python3 bench/run.py --workload W --seconds S --trace 0``
once in each tree, one after the other; odd pairs run the parent first,
even pairs the change first, so a host that drifts over a pair favours
neither side. Only the last line of each run, its JSON result, is read.

FILE gets four keys, in this order: ``about`` (how the runs were made),
``claim`` (written as "none"; a change that claims a gain states it
there), ``summary`` (per workload: for each end-to-end metric of the
change tree's ``BENCHMARK.json``, the parent and change medians,
quartiles and IQR, the relative change of the medians and the share of
pairs the change wins) and ``runs`` (every run made, in order).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line, flattened."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=3 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload, each metric's medians, quartiles, IQR, relative change
    and share of pairs the change wins; ``metrics`` maps a metric name to
    the direction that is better, "lower" or "higher"."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["tree"]] = run
        complete = [p for p in pairs.values()
                    if all(p.get(tree, {}).get("correct") for tree in TREES)]
        correct = sum(run.get("correct", False) and run.get("failed") == 0
                      for p in pairs.values() for run in p.values())
        entry = {"pairs": len(pairs),
                 "runs_correct_with_0_failed": f"{correct}/{2 * len(pairs)}"}
        for name, better in metrics.items():
            parent = [p["parent"][name] for p in complete]
            change = [p["change"][name] for p in complete]
            if len(parent) < 2:
                continue
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q, c_q = _quartiles(parent), _quartiles(change)
            entry[name] = {
                "parent_median": round(p_med, 4), "change_median": round(c_med, 4),
                "parent_quartiles": [round(q, 4) for q in p_q],
                "change_quartiles": [round(q, 4) for q in c_q],
                "parent_iqr": round(p_q[1] - p_q[0], 4),
                "change_iqr": round(c_q[1] - c_q[0], 4),
                "change_vs_parent": f"{100 * (c_med - p_med) / p_med:+.1f}%",
                "change_better_in": f"{wins}/{len(complete)}",
            }
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    about = (f"Alternating parent/change pairs of python3 bench/run.py --workload W "
             f"--seconds {args.seconds:g} --trace 0, {args.pairs} pairs per workload "
             f"({', '.join(args.workload)}); odd pairs ran the parent first, even pairs "
             f"the change first. Parent tree {trees['parent'].name}, change tree "
             f"{trees['change'].name}. Host: {os.cpu_count()} CPUs, {platform.machine()}, "
             f"Python {platform.python_version()}. Every run listed in 'runs' is every "
             f"run made.")
    runs = []
    for workload in args.workload:
        for pair in range(1, args.pairs + 1):
            order = TREES if pair % 2 else TREES[::-1]
            for tree in order:
                run = {"workload": workload, "pair": pair, "tree": tree, "first": order[0],
                       **run_once(trees[tree], workload, args.seconds)}
                runs.append(run)
                print(json.dumps(run), file=sys.stderr, flush=True)
    report = {"about": about, "claim": "none",
              "summary": summarize(runs, metrics), "runs": runs}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
