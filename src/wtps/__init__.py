"""Weighted total popularity scoring for repository event streams.

The package turns timestamped fork/star events into community-weighted
popularity scores, rankings, growth labels, correlation/regression reports,
and repository-follower graph experiments. See the README for the file
format, CLI, and output schemas.

The package exports the quick-start API and the error types. Everything
else is imported from its own module: ``wtps.model``, ``wtps.dataset``,
``wtps.scoring``, ``wtps.stats``, ``wtps.graph`` or ``wtps.api``. Importing
the package loads only the error types; each quick-start name loads its
module on first access, so ``wtps.cli`` and each library import load only
the modules they run.
"""

from importlib import import_module

from .errors import (
    ApiError,
    AuthFailure,
    ConfigError,
    DegenerateInput,
    DeltaOverflow,
    DuplicateRepoId,
    EmptyEventSet,
    EmptyGraph,
    EmptyInput,
    EventBeforeCreation,
    EventOutsideGrid,
    IntervalOutOfRange,
    LengthMismatch,
    NotFound,
    ParseError,
    RateLimited,
    StepsExceedRepoCount,
    UnexportableNodeId,
    UnknownRepo,
    WtpsError,
)

__version__ = "0.1.0"

__all__ = [
    "ApiError",
    "AuthFailure",
    "ConfigError",
    "DegenerateInput",
    "DeltaOverflow",
    "DuplicateRepoId",
    "EmptyEventSet",
    "EmptyGraph",
    "EmptyInput",
    "EventBeforeCreation",
    "EventOutsideGrid",
    "Indicator",
    "IntervalOutOfRange",
    "LengthMismatch",
    "NotFound",
    "ParseError",
    "RateLimited",
    "StepsExceedRepoCount",
    "UnexportableNodeId",
    "UnknownRepo",
    "WtpsError",
    "bin_events",
    "compute_weights",
    "load_corpus",
    "rank",
    "score_all",
]

# Each quick-start name, by the module that defines it.
_QUICK_START = {"load_corpus": "dataset", "bin_events": "model", "Indicator": "model",
                "compute_weights": "scoring", "rank": "scoring", "score_all": "scoring"}


def __getattr__(name: str):
    """A quick-start name, from its module on first access (PEP 562)."""
    if name not in _QUICK_START:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_QUICK_START[name]}", __name__), name)
