"""Fitting a model, and reading and writing it as one text artifact.

The file is self-describing and holds only what cannot be derived: the
bin limits, reward factors, displayed chain ``p1``, optional priority
index ``g``, and a fingerprint of how the model was fitted. Floats are
written with 17 significant digits so every value round-trips exactly.

    # feedrank model, format v4
    [meta]      fit fingerprint (windows, counts, filters)
    [config]    beta, epsilon
    [bins]      novelty_limits, popularity_limits
    [rewards]   r_n, r_p
    [p1]        row_<i> = comma-joined probabilities
    [indices]   g (present once computed)

``read_model`` reads this format only; a file without its header line,
such as one in format v1, v2 or v3, is refused and must be written again
by ``feedrank fit``. A ``ModelBundle`` range-checks every value when it
is built, fitted or read, by the ``BinSpec``, ``StateSpace`` and
``TransitionModel`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import BinSpec, RunConfig, parse_window
from .errors import ConfigError, DataError
from .events import ItemTable, hour_of_minute
from .indices import IndexTable
from .states import StateSpace, fit_popularity_bins, fit_rewards
from .transitions import TransitionModel, build_model, estimate_p1

FORMAT_HEADER = "# feedrank model, format v4"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_list(values) -> str:
    """Comma-joined ``_fmt`` values, formatted by one ``%`` call."""
    row = tuple(np.asarray(values, dtype=float).tolist())
    return ",".join(["%.17g"] * len(row)) % row


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def format_limits(limits) -> str:
    """Bin limits as the model file and the report header write them."""
    return ",".join("inf" if v == math.inf else str(int(v)) for v in limits)


def _parse_limits(text: str) -> tuple:
    return tuple(math.inf if tok == "inf" else int(tok) for tok in text.split(","))


@dataclass
class ModelBundle:
    """Everything the CLI persists between fit, indices, and evaluate.

    Building one runs the checks every model passes, so that a fitted
    model and a read one meet the same ranges.
    """

    bins: BinSpec
    r_n: tuple[float, ...]
    r_p: tuple[float, ...]
    epsilon: float
    beta: float
    p1: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)
    index: IndexTable | None = None

    def __post_init__(self):
        if np.ndim(self.epsilon) != 0:
            raise DataError("model epsilon must be one number")
        n = self.bins.n_states
        if np.shape(self.p1) != (n, n):
            raise DataError(f"[p1] has shape {np.shape(self.p1)}, expected ({n}, {n})")
        if self.index is not None and not (
                self.index.g.shape == (n,) and np.isfinite(self.index.g).all()):
            raise DataError(f"[indices] g must hold {n} finite values")
        self.state_space()
        self.transition_model()
        self.train_window()

    def state_space(self) -> StateSpace:
        return StateSpace(self.bins, self.r_n, self.r_p)

    def transition_model(self) -> TransitionModel:
        return build_model(self.p1, self.epsilon, self.beta)

    def train_window(self) -> tuple[int, int] | None:
        """The window ``fit_model`` recorded in ``meta``, if any."""
        text = self.meta.get("train_window")
        if text is None:
            return None
        try:  # the window checks a config meets
            window = parse_window(text.strip("[)").split(","), "train_window")
            return RunConfig(train_window=window).train_window
        except ConfigError as exc:
            raise DataError(f"model [meta] {exc}") from exc


def fit_model(table: ItemTable, cfg: RunConfig) -> ModelBundle:
    """Fit bins, rewards and ``p1`` on the items posted inside
    ``cfg.train_window`` (and, when set, during ``cfg.peak_hours``)."""
    if cfg.train_window is None:
        raise ConfigError("fit needs a train window")
    start, end = cfg.train_window
    post = table.post_minute
    mask = (start <= post) & (post < end)
    if cfg.peak_hours is not None:
        mask &= np.isin(hour_of_minute(post), cfg.peak_hours)
    train = table.take(mask)
    if not len(train):
        raise DataError(f"no posts inside the train window [{start}, {end})")

    bins = BinSpec(
        novelty_limits=cfg.novelty_limits,
        popularity_limits=fit_popularity_bins(
            train.count("retweet", np.arange(len(train)), 0, train.stride),
            cfg.n_popularity_bins),
    )
    r_n, r_p = fit_rewards(train, bins)
    p1 = estimate_p1(train, bins, cfg.train_window, smoothing=cfg.smoothing)

    meta = {
        "train_window": f"[{start}, {end})",
        "items_total": str(len(table)),
        "items_used": str(len(train)),
        "events_used": str(len(train) + sum(k.size for k in train.keys.values())),
        "peak_hours": (",".join(str(h) for h in cfg.peak_hours)
                       if cfg.peak_hours else "none"),
        "smoothing": format(cfg.smoothing, ".17g"),
    }
    return ModelBundle(bins=bins, r_n=r_n, r_p=r_p, epsilon=cfg.epsilon,
                       beta=cfg.beta, p1=p1, meta=meta)


def write_model(bundle: ModelBundle, path) -> None:
    n = bundle.bins.n_states
    lines = [FORMAT_HEADER, "[meta]"]
    for key, value in bundle.meta.items():
        lines.append(f"{key} = {value}")
    lines.append("[config]")
    lines.append(f"beta = {_fmt(bundle.beta)}")
    lines.append(f"epsilon = {_fmt(bundle.epsilon)}")
    lines.append("[bins]")
    lines.append(f"novelty_limits = {format_limits(bundle.bins.novelty_limits)}")
    lines.append(f"popularity_limits = {format_limits(bundle.bins.popularity_limits)}")
    lines.append("[rewards]")
    lines.append(f"r_n = {_fmt_list(bundle.r_n)}")
    lines.append(f"r_p = {_fmt_list(bundle.r_p)}")
    lines.append("[p1]")
    for i in range(n):
        lines.append(f"row_{i} = {_fmt_list(bundle.p1[i])}")
    if bundle.index is not None:
        lines.append("[indices]")
        lines.append(f"g = {_fmt_list(bundle.index.g)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_sections(path) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    header = lines[0].strip() if lines else ""
    if header != FORMAT_HEADER:
        raise DataError(f"model {path} starts with {header!r}, not {FORMAT_HEADER!r}; "
                        "rerun fit to write it")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in sections:
                raise DataError(f"duplicate section [{name}] at line {lineno}")
            current = {}
            sections[name] = current
            continue
        if current is None or "=" not in line:
            raise DataError(f"unparseable model line {lineno}: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise DataError(f"duplicate key {key!r} in [{name}] at line {lineno}")
        current[key] = value.strip()
    return sections


def _parse_matrix(rows: dict[str, str], name: str, n: int) -> np.ndarray:
    if len(rows) != n:
        raise DataError(f"[{name}] holds {len(rows)} rows, expected {n}")
    mat = np.empty((n, n))
    for i in range(n):
        row = _parse_floats(rows[f"row_{i}"])
        if len(row) != n:
            raise DataError(f"[{name}] row_{i} holds {len(row)} values, expected {n}")
        mat[i] = row
    return mat


def read_model(path) -> ModelBundle:
    """Load a format v4 model file; the bundle checks every value's range."""
    sections = _read_sections(path)
    for required in ("config", "bins", "rewards", "p1"):
        if required not in sections:
            raise DataError(f"model file is missing the [{required}] section")
    try:
        bins = BinSpec(
            novelty_limits=_parse_limits(sections["bins"]["novelty_limits"]),
            popularity_limits=_parse_limits(sections["bins"]["popularity_limits"]),
        )
        beta = float(sections["config"]["beta"])
        epsilon = float(sections["config"]["epsilon"])
        r_n = tuple(_parse_floats(sections["rewards"]["r_n"]))
        r_p = tuple(_parse_floats(sections["rewards"]["r_p"]))
        p1 = _parse_matrix(sections["p1"], "p1", bins.n_states)
        g = (np.array(_parse_floats(sections["indices"]["g"]))
             if "indices" in sections else None)
    except KeyError as exc:
        raise DataError(f"model file is missing key {exc}") from exc
    except ValueError as exc:
        raise DataError(f"model file holds an unparseable value: {exc}") from exc
    return ModelBundle(
        bins=bins, r_n=r_n, r_p=r_p, epsilon=epsilon, beta=beta, p1=p1,
        meta=dict(sections.get("meta", {})), index=None if g is None else IndexTable(g),
    )
