"""Feed ranking with priority indices for dual-speed restless bandits.

Items in a feed evolve through a novelty/popularity state space. Serving
an item advances it along the displayed-chain transition matrix; leaving
it unserved slows that evolution by a per-state factor. The package fits
the state space and transition model from an engagement event log,
computes a priority index for every state with an adaptive-greedy pass,
and evaluates index, novelty, and popularity rankers against utility
and attention signals.
"""

import importlib

__version__ = "0.1.0"

# Each export and its module. They load on first use (PEP 562), so that
# ``import feedrank`` and a CLI subcommand that needs no numpy load none.
_EXPORTS = {
    "config": ("BinSpec", "DEFAULT_NOVELTY_LIMITS", "GeneratorConfig", "RunConfig",
               "load_config"),
    "errors": ("ConfigError", "DataError", "EventLogError", "FeedrankError",
               "IndexabilityError", "NumericalError"),
    "evaluation": ("EvaluationReport", "attention_relevance", "evaluate_run", "mean_std",
                   "ndcg", "pearson", "rank_window", "utility_relevance"),
    "events": ("EventBatch", "ItemTable", "build_timelines", "load_event_log",
               "parse_event_log", "serialize_event_log"),
    "indices": ("IndexTable", "SweepStats", "compute_indices", "constants_a",
                "format_rank_grid", "occupancy", "rank_states"),
    "model_io": ("ModelBundle", "fit_model", "read_model", "write_model"),
    "ranking": ("Rankings", "rank_items"),
    "states": ("StateSpace", "classify", "fit_popularity_bins", "fit_rewards"),
    "synth": ("generate_stream",),
    "transitions": ("TransitionModel", "build_model", "derive_p0", "estimate_p1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
