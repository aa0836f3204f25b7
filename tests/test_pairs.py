import importlib.util
from pathlib import Path


_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_summary_of_fixed_runs():
    runs = []
    for pair, (p_s, c_s, p_score, c_score) in enumerate(
            [(1.0, 0.9, 1, 2), (2.0, 1.8, 1, 0), (3.0, 3.3, 1, 2), (4.0, 3.6, 1, 0)], start=1):
        for tree, s, score in (("parent", p_s, p_score), ("change", c_s, c_score)):
            runs.append({"workload": "w", "pair": pair, "tree": tree, "correct": True,
                         "failed": 0, "pipeline_s": s, "score": score})
    # A pair with a failed run counts in neither side's figures.
    runs += [{"workload": "w", "pair": 5, "tree": "parent", "correct": True, "failed": 0,
              "pipeline_s": 100.0, "score": 100},
             {"workload": "w", "pair": 5, "tree": "change", "correct": False, "exit": 1}]
    summary = pairs.summarize(runs, {"pipeline_s": "lower", "score": "higher"})
    assert list(summary) == ["w"]
    w = summary["w"]
    assert (w["pairs"], w["runs_correct_with_0_failed"]) == (5, "9/10")
    assert w["pipeline_s"] == {
        "parent_median": 2.5, "change_median": 2.55,
        "parent_quartiles": [1.75, 3.25], "change_quartiles": [1.575, 3.375],
        "parent_iqr": 1.5, "change_iqr": 1.8,
        "change_vs_parent": "+2.0%", "change_better_in": "3/4",
    }
    # Higher is better for score: the change wins the pairs where it is 2.
    assert (w["score"]["change_median"], w["score"]["change_quartiles"]) == (1.0, [0.0, 2.0])
    assert (w["score"]["change_vs_parent"], w["score"]["change_better_in"]) == ("+0.0%", "2/4")
