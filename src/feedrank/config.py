"""Run configuration: JSON file plus command-line overrides.

``RunConfig``, ``GeneratorConfig`` and ``BinSpec`` check every value when
built. They and the defaults and bounds they check are pure Python, so
that checking a config loads no numpy.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from datetime import date
from numbers import Integral, Real
from typing import Mapping

from .errors import ConfigError, DataError

_EPOCH = date(1970, 1, 1)
MINUTES_PER_DAY = 1440
SECONDS_PER_MINUTE = 60

# Bounds |window endpoints|, horizons and intervals, so evaluation's int64 sums stay exact.
MAX_MINUTES = 2**60

# The largest accepted timestamp. It keeps every minute below 2**31, so
# the item table's int64 keys ``row * stride + minute`` cannot overflow
# for fewer than 2**32 items.
MAX_TS = 2**31 * SECONDS_PER_MINUTE - 1
MAX_MINUTE = MAX_TS // SECONDS_PER_MINUTE

POLICIES = ("index", "novelty", "popularity")
SIGNALS = ("utility", "rt", "rt_replies", "rt_replies_favs")
DEFAULT_HORIZON = 60
DEFAULT_RELEVANCE_CAP = 30
DEFAULT_NOVELTY_LIMITS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 60)
DEFAULT_POPULARITY_BINS = 10
DEFAULT_EPSILON = 0.1
DEFAULT_BETA = 0.9

# The most item-minutes one evaluation ranks. They are all held at once, at
# about 124 bytes each, so this bound (about 40 times a 30-day log's 825,967)
# keeps the peak near 4 GB instead of failing mid-allocation.
MAX_ENTRIES = 2**25

# The largest relevance cap. A minute's DCG adds at most MAX_ENTRIES gains
# 2**s - 1 < 2**cap, each divided by a discount of at least 1, so with
# 2**cap * MAX_ENTRIES <= 2**1023 every DCG stays below the largest float.
MAX_RELEVANCE_CAP = 1023 - (MAX_ENTRIES.bit_length() - 1)

# The most states a bin grid may give: fit, sweep and model file are dense n x n.
MAX_STATES = 4096

# The largest smoothing: a row of MAX_STATES smoothed cells still sums to a finite total.
MAX_SMOOTHING = 1e300

# Bounds the mean post count, the account-days the generator's loop visits,
# and its largest retweet draw: ``magnitude_cap``, whose CDF table holds
# three float arrays that long, times the peak-hour boost.
MAX_POSTS = 2**20

# Bounds a run's expected retweet total: about 12.6M events, or 3.9 GB at 311 B each.
MAX_RETWEETS = 2**23


def _power_integral(ratio: float, s: float) -> float:
    """The integral of u**-s over [1, ratio]; expm1 keeps it accurate for s near 1."""
    z = (1.0 - s) * math.log(ratio)
    return math.log(ratio) * (math.expm1(z) / z if z else 1.0)


@dataclass(frozen=True)
class BinSpec:
    """Bin limits for novelty (ages) and popularity (retweet counts).

    ``novelty_limits`` has one more entry than there are novelty bins;
    bin ``i`` covers ages ``[novelty_limits[i-1], novelty_limits[i] - 1]``
    (1-based bins). Ages outside the covered range map to state 0.

    ``popularity_limits`` is analogous for counts, non-strictly
    ascending, starting at 0 and terminated by an ``inf`` sentinel so
    every count >= 0 lands in some bin. When limits collapse (repeated
    values), classification picks the first bin whose range contains
    the count. ``states.novelty_bin`` and ``states.popularity_bin`` bin
    ages and counts by these limits.
    """

    novelty_limits: tuple[int, ...]
    popularity_limits: tuple[float, ...]

    def __post_init__(self):
        nov = tuple(self.novelty_limits)
        pop = tuple(float(x) for x in self.popularity_limits)
        object.__setattr__(self, "novelty_limits", nov)
        object.__setattr__(self, "popularity_limits", pop)
        if len(nov) < 2:
            raise DataError("novelty_limits needs at least two entries")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in nov):
            raise DataError("novelty_limits must be integers")
        if nov[0] < 1:
            raise DataError("novelty_limits must start at age >= 1")
        if any(a >= b for a, b in zip(nov, nov[1:])):
            raise DataError("novelty_limits must be strictly ascending")
        if nov[-1] > MAX_MINUTE:
            raise DataError(f"novelty_limits must not exceed {MAX_MINUTE}")
        if len(pop) < 2:
            raise DataError("popularity_limits needs at least two entries")
        if pop[0] != 0:
            raise DataError("popularity_limits must start at 0")
        if pop[-1] != math.inf:
            raise DataError("popularity_limits must end with inf")
        if any(x == math.inf for x in pop[:-1]):
            raise DataError("only the final popularity limit may be inf")
        if any(x != int(x) or x < 0 for x in pop[:-1]):
            raise DataError("popularity_limits must be non-negative integers")
        if any(a > b for a, b in zip(pop, pop[1:])):
            raise DataError("popularity_limits must be non-strictly ascending")
        if self.n_states > MAX_STATES:
            raise DataError(f"the bins give {self.n_states} states, more than {MAX_STATES}")

    @property
    def n_novelty_bins(self) -> int:
        return len(self.novelty_limits) - 1

    @property
    def n_popularity_bins(self) -> int:
        return len(self.popularity_limits) - 1

    @property
    def n_states(self) -> int:
        return self.n_novelty_bins * self.n_popularity_bins + 1


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic stream of ``synth.generate_stream``.

    ``posts_per_day`` is the weekday mean per account; day 0 is the
    epoch's Thursday, and ``synth.WEEKDAY_FACTORS`` and
    ``synth.DIURNAL_WEIGHTS`` shape the week and the day. Retweet totals
    mix a point mass at zero with a discrete power law of exponent
    ``alpha`` starting at ``x_min``. A tweet's retweets spread over
    minute offsets 1..59 after the post with explicit weights for the
    first three minutes (the empirical peak sits at minutes 2 and 3) and
    a ``offset^-gamma`` tail after them, each tweet's weights jittered
    by a log-normal factor of sigma 0.35. Each minute's replies and
    favorites are thinned from its retweets with probabilities 0.3 and
    0.2.
    """

    seed: int = 1
    n_accounts: int = 5
    days: int = 14
    posts_per_day: float = 40.0
    alpha: float = 2.3
    x_min: int = 1
    zero_fraction: float = 0.15
    gamma: float = 1.0
    early_weights: tuple[float, float, float] = (0.55, 1.0, 0.92)
    peak_magnitude_scale: float = 1.0
    magnitude_cap: int = 1_000_000

    def __post_init__(self) -> None:
        # Checked when built. Each field holds the number type of its default
        # (tuple fields: of their entries); bools are not numbers here.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            is_tuple = isinstance(f.default, tuple)
            sample = f.default[0] if is_tuple else f.default
            if is_tuple and not isinstance(value, tuple):
                raise ConfigError(f"{f.name} must be a list of numbers, got {value!r}")
            for v in value if is_tuple else (value,):
                if isinstance(sample, int):
                    if isinstance(v, bool) or not isinstance(v, Integral):
                        raise ConfigError(f"{f.name} must hold integers, got {v!r}")
                elif isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
                    raise ConfigError(f"{f.name} must hold finite numbers, got {v!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.n_accounts < 1 or self.days < 1:
            raise ConfigError("need at least one account and one day")
        if self.posts_per_day < 0:
            raise ConfigError("posts_per_day must be >= 0")
        if self.alpha <= 1:
            raise ConfigError("alpha must exceed 1")
        if self.x_min < 1:
            raise ConfigError("x_min must be >= 1")
        if not 0 <= self.zero_fraction < 1:
            raise ConfigError("zero_fraction must lie in [0, 1)")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if len(self.early_weights) != 3 or any(w <= 0 for w in self.early_weights):
            raise ConfigError("early_weights must be 3 positive values")
        if self.peak_magnitude_scale <= 0:
            raise ConfigError("peak_magnitude_scale must be positive")
        if self.magnitude_cap < self.x_min:
            raise ConfigError("magnitude_cap must be >= x_min")
        if self.days * self.n_accounts > MAX_POSTS:  # exact ints before the float product
            raise ConfigError(f"days x n_accounts must not exceed {MAX_POSTS}")
        if self.days * self.n_accounts * self.posts_per_day > MAX_POSTS:
            raise ConfigError(f"days x n_accounts x posts_per_day must not exceed {MAX_POSTS}")
        if self.magnitude_cap * max(1, self.peak_magnitude_scale) > MAX_POSTS:
            raise ConfigError("magnitude_cap x max(1, peak_magnitude_scale) "
                              f"must not exceed {MAX_POSTS}")
        # Bound the power law's mean by first terms and integrals, all scaled by x_min**alpha.
        a, cap, alpha = self.x_min, self.magnitude_cap, self.alpha
        mean = (a + a * a * _power_integral(cap / a, alpha - 1)) / (
            1 + (a + 1) * (a / (a + 1)) ** alpha * _power_integral((cap + 1) / (a + 1), alpha))
        if (self.days * self.n_accounts * self.posts_per_day * (1 - self.zero_fraction)
                * max(1, self.peak_magnitude_scale) * mean > MAX_RETWEETS):
            raise ConfigError(f"the run's expected retweets must not exceed {MAX_RETWEETS}")


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
