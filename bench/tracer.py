"""Span tracer for the traced benchmark run.

A ``Tracer`` wraps functions and records one span per call: the
function's name, its start and end (``perf_counter_ns``) and the span
that was open when it was called. Spans live in compact arrays in
memory (evaluating the month corpus records about 4.6M of them) and
are written to one file when the traced process exits.

``install`` wraps named functions of a package and rebinds every
module-level reference to each function object, because modules import
names directly (``feedrank.cli`` calls its own ``load_event_log``
binding). A target that no longer exists is reported absent instead of
failing the run.

``span_stats`` turns spans into per-function call counts, total time
and self time, where self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# Public feedrank functions the traced run wraps, as "<module>.<function>".
TARGETS = (
    "synth.generate_stream",
    "events.parse_event_log",
    "events.build_timelines",
    "events.serialize_event_log",
    "states.classify",
    "states.fit_rewards",
    "states.fit_popularity_bins",
    "transitions.estimate_p1",
    "indices.compute_indices",
    "indices.occupancy",
    "model_io.read_model",
    "model_io.write_model",
    "ranking.rank_items",
    "evaluation.evaluate_run",
    "evaluation.ndcg",
    "evaluation.utility_relevance",
    "evaluation.attention_relevance",
)

# On-disk span layout after the JSON header line: these arrays, in order.
_COLUMNS = (("name_id", "h", np.int16), ("parent", "i", np.int32),
            ("start", "q", np.int64), ("end", "q", np.int64))


class Tracer:
    """Records spans of wrapped functions in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns = {key: array(code) for key, code, _ in _COLUMNS}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so every call records a span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        name_ids = self.columns["name_id"]
        parents = self.columns["parent"]
        starts = self.columns["start"]
        ends = self.columns["end"]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def write(self, path, absent=()) -> None:
        header = {"names": self.names, "absent": list(absent),
                  "spans": len(self.columns["start"])}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _, _ in _COLUMNS:
                self.columns[key].tofile(fh)


def read_spans(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load a span file written by ``Tracer.write``: (header, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        columns = {key: np.fromfile(fh, dtype=dtype, count=n)
                   for key, _, dtype in _COLUMNS}
    return header, columns


def span_stats(names, columns) -> dict[str, dict]:
    """Per-function calls, total_s, self_s and the per-call durations (s)."""
    name_id = columns["name_id"].astype(np.intp)
    parent = columns["parent"].astype(np.intp)
    dur = columns["end"] - columns["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_ns = dur - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_total = np.bincount(name_id, weights=self_ns, minlength=k)
    return {
        name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
               "self_s": self_total[i] / 1e9,
               "durations_s": dur[name_id == i] / 1e9}
        for i, name in enumerate(names)
    }


def install(tracer: Tracer, targets, package: str = "feedrank") -> list[str]:
    """Wrap each ``<module>.<function>`` target of ``package``.

    Every module-level binding of the function object in the loaded
    modules of ``package`` is replaced by the wrapper. Returns the
    targets whose module or function does not exist.
    """
    absent = []
    for target in targets:
        mod_name, _, fn_name = target.rpartition(".")
        try:
            module = importlib.import_module(f"{package}.{mod_name}")
        except ModuleNotFoundError:
            absent.append(target)
            continue
        fn = getattr(module, fn_name, None)
        if not callable(fn):
            absent.append(target)
            continue
        wrapped = tracer.wrap(target, fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
    return absent
