"""Weighted total popularity scoring for repository event streams.

The package turns timestamped fork/star events into community-weighted
popularity scores, rankings, growth labels, correlation/regression reports,
and repository-follower graph experiments. See the README for the file
format, CLI, and output schemas.

The package exports the quick-start API and the error types. Everything
else is imported from its own module: ``wtps.model``, ``wtps.dataset``,
``wtps.scoring``, ``wtps.stats``, ``wtps.graph`` or ``wtps.api``.
"""

from .dataset import load_corpus
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
from .model import bin_events
from .scoring import Indicator, compute_weights, rank, score_all

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
