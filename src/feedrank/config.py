"""Run configuration: JSON file plus command-line overrides."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from datetime import date
from numbers import Integral, Real
from typing import Mapping

from .errors import ConfigError, DataError
from .evaluation import DEFAULT_RELEVANCE_CAP, MAX_RELEVANCE_CAP, SIGNALS
from .ranking import DEFAULT_HORIZON, POLICIES
from .states import DEFAULT_NOVELTY_LIMITS, DEFAULT_POPULARITY_BINS, MAX_STATES, BinSpec
from .synth import GeneratorConfig
from .transitions import DEFAULT_BETA, DEFAULT_EPSILON, MAX_SMOOTHING

_EPOCH = date(1970, 1, 1)
MINUTES_PER_DAY = 1440

# Bounds |window endpoints|, horizons and intervals, so evaluation's int64 sums stay exact.
MAX_MINUTES = 2**60


def _parse_int(value, name: str) -> int:
    """An integer given as a JSON number (not a bool) or as flag text."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{name} must hold integers, got {value!r}")


def parse_minute(value) -> int:
    """A window endpoint: a minute index or an ISO date (UTC midnight)."""
    try:
        return _parse_int(value, "window endpoint")
    except ConfigError:
        if isinstance(value, str):
            try:
                return (date.fromisoformat(value) - _EPOCH).days * MINUTES_PER_DAY
            except ValueError:
                pass
        raise ConfigError(f"window endpoint {value!r} is neither a minute "
                          "index nor an ISO date") from None


def _split(value, name: str) -> list:
    """A JSON list, or flag text split on commas."""
    if isinstance(value, str):
        return value.split(",")
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ConfigError(f"{name} must be a list or a comma-separated string")


def parse_window(value, name: str) -> tuple[int, int]:
    """A half-open minute window: a [start, end) pair or 'START:END' text."""
    if isinstance(value, str):
        value = value.split(":")
        if len(value) != 2:
            raise ConfigError(f"{name} must look like START:END")
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name} must be a [start, end) pair")
    return tuple(parse_minute(v) for v in value)


def parse_hours(value) -> tuple[int, ...]:
    """Hour set from a list of ints or a string like '12-1' or '12,13,0'.

    Ranges wrap past midnight, so '12-1' covers 12:00 through 01:59.
    """
    hours = []
    for token in _split(value, "peak_hours"):
        if isinstance(token, str) and "-" in token:
            a_text, _, b_text = token.partition("-")
            a, b = _parse_int(a_text, "peak_hours"), _parse_int(b_text, "peak_hours")
            # Both ends are kept as written, so RunConfig sees one out of range.
            hours += [a, *((a + k) % 24 for k in range(1, (b - a) % 24)), b]
        elif not isinstance(token, str) or token.strip():
            hours.append(_parse_int(token, "peak_hours"))
    return tuple(hours)


def parse_field(name: str, value):
    """One RunConfig value, parsed the same way from JSON and from a flag."""
    if name in ("train_window", "eval_window"):
        return parse_window(value, name)
    if name == "peak_hours":
        return parse_hours(value)
    if name == "novelty_limits":
        return tuple(_parse_int(v, name) for v in _split(value, name))
    if name in ("policies", "signals"):
        return tuple(_split(value, name))
    if name == "generator":
        return generator_from_dict(value)
    return value


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, each value checked when built; flags override file values."""

    events_path: str | None = None
    model_path: str | None = None
    report_dir: str | None = None
    train_window: tuple[int, int] | None = None
    eval_window: tuple[int, int] | None = None
    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    horizon: int = DEFAULT_HORIZON
    decision_interval: int = 1
    novelty_limits: tuple[int, ...] = DEFAULT_NOVELTY_LIMITS
    n_popularity_bins: int = DEFAULT_POPULARITY_BINS
    peak_hours: tuple[int, ...] | None = None
    policies: tuple[str, ...] = POLICIES
    signals: tuple[str, ...] = SIGNALS
    relevance_cap: int = DEFAULT_RELEVANCE_CAP
    smoothing: float = 0.0
    dump_snapshots: bool = False
    generator: GeneratorConfig | None = None

    def __post_init__(self) -> None:
        for name in ("events_path", "model_path", "report_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path")
        for name in ("beta", "epsilon", "smoothing"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        # occupancy() needs beta < 1; reject it before a model is written.
        if not 0 < self.beta < 1:
            raise ConfigError("beta must lie in (0, 1)")
        if not 0 <= self.epsilon <= 1:
            raise ConfigError("epsilon must lie in [0, 1]")
        if not 0 <= self.smoothing <= MAX_SMOOTHING:
            raise ConfigError(f"smoothing must lie in 0..{MAX_SMOOTHING:g}")
        for name in ("train_window", "eval_window"):
            window = getattr(self, name)
            if window is None:
                continue
            if not (isinstance(window, tuple) and len(window) == 2 and all(map(_is_int, window))):
                raise ConfigError(f"{name} must be a (start, end) pair of minutes")
            start, end = window
            if max(abs(start), abs(end)) > MAX_MINUTES:
                raise ConfigError(f"{name} endpoints must lie in -{MAX_MINUTES}..{MAX_MINUTES}")
            if end <= start:
                raise ConfigError(f"{name} [{start}, {end}) is empty")
        for name, low, high in (("horizon", 1, MAX_MINUTES), ("decision_interval", 1, MAX_MINUTES),
                                ("relevance_cap", 1, MAX_RELEVANCE_CAP),
                                ("n_popularity_bins", 2, MAX_STATES)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
            if value > high:
                raise ConfigError(f"{name} must not exceed {high}")
        hours = self.peak_hours
        if hours is not None and not (isinstance(hours, tuple) and hours and all(
                _is_int(h) and 0 <= h <= 23 for h in hours)):
            raise ConfigError("peak_hours must be one or more hours in 0..23")
        if hours is not None:  # one hour set, however it was listed
            object.__setattr__(self, "peak_hours", tuple(sorted(set(hours))))
        if not isinstance(self.dump_snapshots, bool):
            raise ConfigError("dump_snapshots must be true or false")
        for name, noun, known in (("policies", "policy", POLICIES),
                                  ("signals", "signal", SIGNALS)):
            chosen = getattr(self, name)
            for value in chosen:
                if value not in known:
                    raise ConfigError(f"unknown {noun} {value!r}")
            if not chosen or len(set(chosen)) != len(chosen):
                raise ConfigError(f"{name} must list one or more names, none twice")
        try:  # the grid a fit builds, its popularity limits all 0
            BinSpec(self.novelty_limits, (0,) * self.n_popularity_bins + (math.inf,))
        except DataError as exc:  # the model file's check, met here as a flag error
            raise ConfigError(str(exc)) from None
        if not isinstance(self.generator, (GeneratorConfig, type(None))):
            raise ConfigError("generator must be a GeneratorConfig")


_RUN_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_GENERATOR_FIELDS = {f.name for f in dataclasses.fields(GeneratorConfig)}


def generator_from_dict(data: dict) -> GeneratorConfig:
    if not isinstance(data, dict):
        raise ConfigError("generator config must be an object")
    unknown = set(data) - _GENERATOR_FIELDS
    if unknown:
        raise ConfigError(f"unknown generator key(s): {', '.join(sorted(unknown))}")
    return GeneratorConfig(**{key: tuple(value) if isinstance(value, list) else value
                              for key, value in data.items()})


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, an int over 4,300 digits, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")

    unknown = set(data) - _RUN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return with_overrides(RunConfig(), data)


def with_overrides(cfg: RunConfig, values: Mapping[str, object]) -> RunConfig:
    """A copy of ``cfg`` with the fields named in ``values`` set.

    Keys that are not RunConfig fields and None values are skipped; every
    other value goes through ``parse_field``, as in a config file."""
    return dataclasses.replace(cfg, **{
        key: parse_field(key, value) for key, value in values.items()
        if key in _RUN_FIELDS and value is not None
    })
