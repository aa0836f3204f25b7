"""Feed ranking with priority indices for dual-speed restless bandits.

Items in a feed evolve through a novelty/popularity state space. Serving
an item advances it along the displayed-chain transition matrix; leaving
it unserved slows that evolution by a per-state factor. The package fits
the state space and transition model from an engagement event log,
computes a priority index for every state with an adaptive-greedy pass,
and evaluates index, novelty, and popularity rankers against utility
and attention signals.
"""

from .errors import (
    ConfigError, DataError, EventLogError, FeedrankError, IndexabilityError,
    NumericalError,
)
from .events import (
    EventBatch, ItemTable, build_timelines, load_event_log, parse_event_log,
    serialize_event_log,
)
from .states import (
    BinSpec, DEFAULT_NOVELTY_LIMITS, StateSpace, build_state_space,
    classify, fit_popularity_bins, fit_rewards,
)
from .transitions import (
    TransitionModel, build_model, derive_p0, estimate_p1,
)
from .indices import (
    IndexTable, SweepStats, compute_indices, constants_a, format_rank_grid,
    occupancy, rank_states,
)
from .ranking import Rankings, rank_items
from .evaluation import (
    EvaluationReport, attention_relevance, evaluate_run, mean_std, ndcg, pearson,
    rank_window, utility_relevance,
)
from .synth import GeneratorConfig, generate_markov_stream, generate_stream
from .model_io import ModelBundle, fit_model, read_model, write_model
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BinSpec", "ConfigError", "DEFAULT_NOVELTY_LIMITS", "DataError",
    "EvaluationReport", "EventBatch",
    "EventLogError", "FeedrankError", "GeneratorConfig", "IndexTable",
    "IndexabilityError", "ItemTable", "ModelBundle", "NumericalError",
    "Rankings", "RunConfig", "StateSpace", "SweepStats", "TransitionModel",
    "attention_relevance", "build_model", "build_state_space",
    "build_timelines", "classify", "compute_indices", "constants_a",
    "derive_p0", "estimate_p1", "evaluate_run", "fit_model", "fit_popularity_bins",
    "fit_rewards", "format_rank_grid", "generate_markov_stream",
    "generate_stream", "load_config", "load_event_log", "mean_std", "ndcg", "occupancy",
    "parse_event_log", "pearson", "rank_items", "rank_states", "rank_window",
    "read_model", "serialize_event_log", "utility_relevance", "write_model",
]
