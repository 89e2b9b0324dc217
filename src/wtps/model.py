"""Shared domain types, time binning, and the corpus container.

Timestamps are integer UTC epoch seconds throughout; durations are whole
days. "Months" are normalized to fixed 30-day windows so that every
supported interval width (30/21/14/7 days) behaves uniformly; calendar-aware
binning is deliberately not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DeltaOverflow,
    DuplicateRepoId,
    EmptyEventSet,
    EventBeforeCreation,
    EventOutsideGrid,
    UnknownRepo,
)

SECONDS_PER_DAY = 86_400


class EventKind(Enum):
    """The two popularity indicators with per-event timelines."""

    FORK = "fork"
    STAR = "star"


@dataclass(frozen=True, slots=True)
class RepoRecord:
    """Static metadata for one repository.

    Snapshot counts (``forks_total`` etc.) are the values observed at capture
    time; ``follower_ids`` are the owner's followers, used to build the
    repository-follower graph.
    """

    repo_id: str
    full_name: str
    created_at: int
    primary_language: str | None = None
    size_kb: int = 0
    owner_followers: int = 0
    forks_total: int = 0
    stars_total: int = 0
    watchers_total: int = 0
    follower_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.repo_id:
            raise ValueError("repo_id must be non-empty")
        for name in ("size_kb", "owner_followers", "forks_total",
                     "stars_total", "watchers_total"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        object.__setattr__(self, "follower_ids", tuple(self.follower_ids))


@dataclass(frozen=True, slots=True)
class PopularityEvent:
    """One timestamped fork or star delta attached to a repository.

    Live ingestion only ever produces ``delta=+1``; negative deltas are
    admitted for synthetic unstar/unwatch-style data and aggregated files.
    """

    repo_id: str
    kind: EventKind
    occurred_at: int
    delta: int = 1

    def __post_init__(self) -> None:
        if self.delta == 0:
            raise ValueError("delta must be nonzero")

    def sort_key(self) -> tuple[int, str, str]:
        return (self.occurred_at, self.repo_id, self.kind.value)


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """Community-wide sequence of fixed-width, half-open time intervals.

    Interval ``i`` covers ``[epoch + i*w, epoch + (i+1)*w)`` where ``w`` is
    ``interval_days`` in seconds, so every covered timestamp lands in exactly
    one bin.
    """

    epoch: int
    interval_days: int
    interval_count: int

    def __post_init__(self) -> None:
        if self.interval_days <= 0:
            raise ValueError("interval_days must be positive")
        if self.interval_count <= 0:
            raise ValueError("interval_count must be positive")

    @property
    def interval_seconds(self) -> int:
        return self.interval_days * SECONDS_PER_DAY

    @property
    def end(self) -> int:
        """First timestamp not covered by the grid."""
        return self.epoch + self.interval_count * self.interval_seconds

    def index_of(self, timestamp: int) -> int:
        """Map a timestamp to its interval index.

        Raises:
            EventOutsideGrid: if the timestamp is before ``epoch`` or at/after
                ``end`` -- the signature of a mis-built grid.
        """
        if timestamp < self.epoch or timestamp >= self.end:
            raise EventOutsideGrid(
                f"timestamp {timestamp} outside grid [{self.epoch}, {self.end})"
            )
        return (timestamp - self.epoch) // self.interval_seconds


def grid_for_times(times: Iterable[int], interval_days: int) -> TimeGrid:
    """Build the minimal grid covering every timestamp in ``times``.

    The epoch anchors at the earliest timestamp truncated to 00:00:00 UTC of
    its day; the interval count is the smallest number of half-open windows
    that covers the latest timestamp.
    """
    ts = list(times)
    if not ts:
        raise EmptyEventSet("cannot build a grid from an empty timestamp set")
    if interval_days <= 0:
        raise ValueError("interval_days must be positive")
    earliest, latest = min(ts), max(ts)
    epoch = earliest - earliest % SECONDS_PER_DAY
    span = latest - epoch
    count = span // (interval_days * SECONDS_PER_DAY) + 1
    return TimeGrid(epoch=epoch, interval_days=interval_days, interval_count=int(count))


@dataclass(frozen=True, slots=True)
class Corpus:
    """An immutable collection of repositories, events, and their grid.

    Construction canonicalizes ordering (repos by id, events by
    ``(occurred_at, repo_id, kind)``) and validates all cross-record
    invariants, so any Corpus in hand is known-good and safe to share.

    ``captured_at`` is the corpus capture timestamp; when not supplied it
    resolves to the latest event time (latest creation time for event-free
    corpora).
    """

    repos: tuple[RepoRecord, ...]
    events: tuple[PopularityEvent, ...]
    grid: TimeGrid
    captured_at: int | None = None

    def __post_init__(self) -> None:
        repos = tuple(sorted(self.repos, key=lambda r: r.repo_id))
        events = tuple(sorted(self.events, key=PopularityEvent.sort_key))
        object.__setattr__(self, "repos", repos)
        object.__setattr__(self, "events", events)

        index: dict[str, RepoRecord] = {}
        for record in repos:
            if record.repo_id in index:
                raise DuplicateRepoId(f"duplicate repo_id {record.repo_id!r}")
            index[record.repo_id] = record

        activity = 0
        for event in events:
            record = index.get(event.repo_id)
            if record is None:
                raise UnknownRepo(
                    f"event references unknown repo_id {event.repo_id!r}"
                )
            if event.occurred_at < record.created_at:
                raise EventBeforeCreation(
                    f"event at {event.occurred_at} predates creation of "
                    f"{event.repo_id!r} at {record.created_at}"
                )
            self.grid.index_of(event.occurred_at)
            activity += abs(event.delta)
        # Binned cells and interval totals are int64; bounding the summed
        # magnitudes bounds every one of them, so none can wrap around.
        if activity >= 2**63:
            raise DeltaOverflow(f"event deltas sum to magnitude {activity} >= 2**63")

        if self.captured_at is None:
            object.__setattr__(self, "captured_at", self._default_capture_time())

    def _default_capture_time(self) -> int:
        if self.events:
            return max(e.occurred_at for e in self.events)
        if self.repos:
            return max(r.created_at for r in self.repos)
        return self.grid.epoch

    @classmethod
    def build(
        cls,
        repos: Iterable[RepoRecord],
        events: Iterable[PopularityEvent],
        interval_days: int = 30,
        captured_at: int | None = None,
    ) -> "Corpus":
        """Construct a corpus with a grid derived from its own data.

        The grid covers the events; a corpus with no events at all seeds the
        grid with repository creation times so it stays well-formed.
        """
        repos = tuple(repos)
        events = tuple(events)
        times: Sequence[int] = [e.occurred_at for e in events]
        if not times:
            times = [r.created_at for r in repos]
        grid = grid_for_times(times, interval_days)
        return cls(repos, events, grid, captured_at)

    def regrid(self, interval_days: int) -> "Corpus":
        """Return a copy of this corpus re-binned onto a new interval width."""
        return self.build(self.repos, self.events, interval_days, self.captured_at)

    @property
    def repo_ids(self) -> tuple[str, ...]:
        return tuple(r.repo_id for r in self.repos)

    def __len__(self) -> int:
        return len(self.repos)


@dataclass(frozen=True, eq=False)
class BinnedCounts:
    """Signed fork/star delta totals per repository and grid interval.

    ``forks`` and ``stars`` are read-only int64 matrices of shape
    ``(len(repo_ids), interval_count)``; row order follows ``repo_ids``,
    which is sorted. Negative deltas pass through binning unchanged.
    """

    repo_ids: tuple[str, ...]
    interval_count: int
    forks: np.ndarray
    stars: np.ndarray
    _index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for matrix in (self.forks, self.stars):
            if matrix.shape != (len(self.repo_ids), self.interval_count):
                raise ValueError(
                    f"matrix shape {matrix.shape} does not match "
                    f"({len(self.repo_ids)}, {self.interval_count})"
                )
            matrix.setflags(write=False)
        object.__setattr__(
            self, "_index", {rid: i for i, rid in enumerate(self.repo_ids)}
        )

    def row_index(self, repo_id: str) -> int:
        try:
            return self._index[repo_id]
        except KeyError:
            raise UnknownRepo(f"unknown repo_id {repo_id!r}") from None

    def matrix(self, kind: EventKind) -> np.ndarray:
        return self.forks if kind is EventKind.FORK else self.stars

    def deltas(self, repo_id: str, kind: EventKind) -> np.ndarray:
        """Per-interval signed deltas for one repository."""
        return self.matrix(kind)[self.row_index(repo_id)]

    def interval_totals(self, kind: EventKind) -> np.ndarray:
        """Community-wide per-interval delta totals (column sums)."""
        return self.matrix(kind).sum(axis=0)


def bin_events(corpus: Corpus) -> BinnedCounts:
    """Bin every event of the corpus onto its grid.

    Pure function: counts[r][t][kind] is the sum of deltas of that kind for
    repo r in interval t, so per-repo totals are conserved under binning.
    """
    repo_ids = corpus.repo_ids
    index = {rid: i for i, rid in enumerate(repo_ids)}
    shape = (len(repo_ids), corpus.grid.interval_count)
    forks = np.zeros(shape, dtype=np.int64)
    stars = np.zeros(shape, dtype=np.int64)
    for event in corpus.events:
        t = corpus.grid.index_of(event.occurred_at)
        row = index[event.repo_id]
        if event.kind is EventKind.FORK:
            forks[row, t] += event.delta
        else:
            stars[row, t] += event.delta
    return BinnedCounts(
        repo_ids=repo_ids,
        interval_count=corpus.grid.interval_count,
        forks=forks,
        stars=stars,
    )
