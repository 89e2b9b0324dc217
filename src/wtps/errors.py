"""Exception types raised across the package.

Every error the library raises deliberately derives from :class:`WtpsError`,
so callers (and the CLI exit-code mapping) can distinguish domain failures
from genuine bugs.
"""

from __future__ import annotations


class WtpsError(Exception):
    """Base class for all errors raised by this package."""


# --- core model / binning -------------------------------------------------

class EmptyEventSet(WtpsError):
    """A time grid was requested for an empty event collection."""


class EventOutsideGrid(WtpsError):
    """An event timestamp falls before the grid epoch or at/after its end."""


class DuplicateRepoId(WtpsError):
    """Two repository records share the same repo_id."""


class EventBeforeCreation(WtpsError):
    """An event predates the creation time of its repository."""


class DeltaOverflow(WtpsError):
    """Event delta magnitudes sum past what a 64-bit count can hold."""


class UnknownRepo(WtpsError):
    """A repo_id does not resolve to any repository in the corpus."""


class IntervalOutOfRange(WtpsError):
    """An interval index is outside [0, interval_count)."""


# --- dataset ingestion ----------------------------------------------------

class ParseError(WtpsError):
    """A dataset line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


# --- REST API client ------------------------------------------------------

class ApiError(WtpsError):
    """Base class for REST client failures."""


class NotFound(ApiError):
    """The requested resource does not exist (HTTP 404)."""


class AuthFailure(ApiError):
    """Credentials were rejected or insufficient (HTTP 401/403)."""


class RateLimited(ApiError):
    """The server refused the request due to rate limiting.

    ``retry_after`` is the server-suggested wait in seconds, when known.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


# --- statistics -----------------------------------------------------------

class LengthMismatch(WtpsError):
    """Paired series have different lengths."""


class DegenerateInput(WtpsError):
    """Input admits no meaningful statistic (constant series, too few points)."""


class EmptyInput(WtpsError):
    """An operation requiring at least one value received none."""


# --- graph ----------------------------------------------------------------

class EmptyGraph(WtpsError):
    """A coefficient was requested for a graph with no nodes."""


class StepsExceedRepoCount(WtpsError):
    """A deletion experiment asked for more steps than there are repo nodes."""


class UnexportableNodeId(WtpsError):
    """A node id is empty or holds whitespace, so an edge list cannot carry it."""


# --- CLI ------------------------------------------------------------------

class ConfigError(WtpsError):
    """The run configuration is invalid for the chosen command."""
