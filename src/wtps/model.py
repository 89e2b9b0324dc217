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
    ParseError,
    UnknownRepo,
    WtpsError,
)

SECONDS_PER_DAY = 86_400


class EventKind(Enum):
    """The two popularity indicators with per-event timelines."""

    FORK = "fork"
    STAR = "star"


# RepoRecord's snapshot counts, in field order; each fits int64, like a binned cell.
COUNT_FIELDS = ("size_kb", "owner_followers", "forks_total", "stars_total", "watchers_total")


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
        object.__setattr__(self, "follower_ids", tuple(self.follower_ids))
        # Saved files and outputs are UTF-8, which has no lone surrogates.
        for name, text in (("repo_id", self.repo_id), ("full_name", self.full_name),
                           ("primary_language", self.primary_language or ""),
                           ("follower_ids", "".join(self.follower_ids))):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{name} is not encodable as UTF-8: {text!r}") from None
        # The message leaves the value out: a huge int cannot be formatted.
        for name in COUNT_FIELDS:
            if not 0 <= getattr(self, name) < 2**63:
                raise ValueError(f"{name} must be in [0, 2**63)")


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

    def sort_key(self) -> tuple[int, str, str, int]:
        return (self.occurred_at, self.repo_id, self.kind.value, self.delta)


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


# Kinds by the code stored in ``Corpus.event_kind``.
EVENT_KINDS = (EventKind.FORK, EventKind.STAR)
_COLUMNS = ("event_repo", "event_kind", "event_time", "event_delta")


def format_timestamp(ts: int) -> str:
    """Render UTC epoch seconds as canonical ISO-8601 ("YYYY-MM-DDTHH:MM:SSZ").

    numpy's formatter pads the year to four digits; ``save_corpus`` runs the
    same formatter over the event times in batches.
    """
    return f"{np.datetime64(ts, 's')}Z"


def _grid_rule(
    repos: Sequence[RepoRecord], times: np.ndarray, interval_days: int
) -> TimeGrid:
    """The grid covering the event times, else the repositories' creation times."""
    if times.size:
        return grid_for_times((int(times.min()), int(times.max())), interval_days)
    return grid_for_times((r.created_at for r in repos), interval_days)


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Corpus:
    """An immutable collection of repositories, events, and their grid.

    Construction canonicalizes ordering (repos by id, events by
    ``(occurred_at, repo_id, kind, delta)``) and validates all cross-record
    invariants, so any Corpus in hand is known-good and safe to share.

    Events are stored as four parallel columns in that order: ``event_repo``
    (row into ``repos``), ``event_kind`` (0 fork, 1 star), ``event_time``
    (epoch seconds) and ``event_delta`` (int64). ``events`` is the row view
    of the same data as ``PopularityEvent`` objects, built on first use.

    ``captured_at`` is the corpus capture timestamp; when not supplied it
    resolves to the later of the latest event time and the latest creation
    time, so that no repository is captured before it exists.
    """

    repos: tuple[RepoRecord, ...]
    grid: TimeGrid
    captured_at: int | None
    event_repo: np.ndarray = field(repr=False)
    event_kind: np.ndarray = field(repr=False)
    event_time: np.ndarray = field(repr=False)
    event_delta: np.ndarray = field(repr=False)
    _rows: tuple[PopularityEvent, ...] | None = field(repr=False)

    def __init__(
        self,
        repos: Iterable[RepoRecord],
        events: Iterable[PopularityEvent],
        grid: TimeGrid,
        captured_at: int | None = None,
    ) -> None:
        self._set(repos=tuple(repos), grid=grid, captured_at=captured_at)
        self.__post_init__(*_columns(events))

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __post_init__(
        self,
        repo_ids: Sequence[str],
        kinds: Sequence[int],
        times: Sequence[int],
        deltas: Sequence[int],
        lines: Sequence[int] | None = None,
    ) -> None:
        """Sort, validate and store the event columns, given in input order.

        ``lines`` are the source line numbers of a loaded file: with them, a
        faulty event is reported by its earliest line in the loader's words;
        without, by its canonical position in the corpus's own words.
        """
        repos = tuple(sorted(self.repos, key=lambda r: r.repo_id))
        row_of: dict[str, int] = {}
        for row, record in enumerate(repos):
            if record.repo_id in row_of:
                raise DuplicateRepoId(f"duplicate repo_id {record.repo_id!r}")
            row_of[record.repo_id] = row

        rows = np.fromiter((row_of.get(rid, -1) for rid in repo_ids), np.intp, len(repo_ids))
        time = np.asarray(times, dtype=np.int64)
        created = np.array([r.created_at for r in repos], dtype=np.int64)
        unknown = rows < 0
        early = np.zeros_like(unknown)
        early[~unknown] = time[~unknown] < created[rows[~unknown]]
        faulty = unknown | early | (time < self.grid.epoch) | (time >= self.grid.end)
        if faulty.any():
            at = np.flatnonzero(faulty).tolist()
            i = at[0] if lines is not None else min(
                at, key=lambda j: (times[j], repo_ids[j], kinds[j], deltas[j])
            )
            raise _event_fault(repos, row_of, repo_ids[i], int(time[i]), self.grid,
                               None if lines is None else lines[i])
        # Binned cells and interval totals are int64; bounding the summed
        # magnitudes bounds every one of them, so none can wrap around.
        activity = sum(map(abs, deltas))
        if activity >= 2**63:
            raise DeltaOverflow(f"event deltas sum to magnitude {activity} >= 2**63")

        kind = np.asarray(kinds, dtype=np.int8)
        delta = np.asarray(deltas, dtype=np.int64)
        order = np.lexsort((delta, kind, rows, time))
        self._set(
            repos=repos,
            event_repo=rows[order],
            event_kind=kind[order],
            event_time=time[order],
            event_delta=delta[order],
            _rows=None,
        )
        for name in _COLUMNS:
            getattr(self, name).setflags(write=False)
        if self.captured_at is None:
            latest = (*self.event_time[-1:].tolist(), *created.tolist())
            self._set(captured_at=max(latest, default=self.grid.epoch))

    @classmethod
    def _from_columns(
        cls,
        repos: tuple[RepoRecord, ...],
        repo_ids: Sequence[str],
        kinds: Sequence[int],
        times: Sequence[int],
        deltas: Sequence[int],
        interval_days: int,
        captured_at: int | None = None,
        lines: Sequence[int] | None = None,
    ) -> "Corpus":
        """A corpus of event columns in input order, on the grid ``build`` derives."""
        corpus = object.__new__(cls)
        times = np.asarray(times, dtype=np.int64)
        grid = _grid_rule(repos, times, interval_days)
        corpus._set(repos=repos, grid=grid, captured_at=captured_at)
        corpus.__post_init__(repo_ids, kinds, times, deltas, lines)
        return corpus

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
        return cls._from_columns(tuple(repos), *_columns(events), interval_days, captured_at)

    def _derive(self, repos, interval_days, rows, kind, time, delta) -> "Corpus":
        """A corpus of already sorted and validated columns, on a rebuilt grid.

        The grid is built to cover ``time``, so no event needs checking again.
        """
        corpus = object.__new__(Corpus)
        for column in (rows, kind, time, delta):
            column.setflags(write=False)
        corpus._set(
            repos=repos,
            grid=_grid_rule(repos, time, interval_days),
            captured_at=self.captured_at,
            event_repo=rows,
            event_kind=kind,
            event_time=time,
            event_delta=delta,
            _rows=None,
        )
        return corpus

    def regrid(self, interval_days: int) -> "Corpus":
        """Return a copy of this corpus re-binned onto a new interval width."""
        return self._derive(self.repos, interval_days, self.event_repo,
                            self.event_kind, self.event_time, self.event_delta)

    def subset(self, repo_ids: Iterable[str]) -> "Corpus":
        """The given repositories and their events, on a grid rebuilt by the
        ``build`` rule at the same width; the capture time is kept."""
        wanted = set(repo_ids)
        keep = np.array([r.repo_id in wanted for r in self.repos], dtype=bool)
        new_row = np.cumsum(keep) - 1
        mask = keep[self.event_repo]
        return self._derive(
            tuple(r for r in self.repos if r.repo_id in wanted),
            self.grid.interval_days,
            new_row[self.event_repo[mask]],
            self.event_kind[mask],
            self.event_time[mask],
            self.event_delta[mask],
        )

    @property
    def events(self) -> tuple[PopularityEvent, ...]:
        """The events as ``PopularityEvent`` rows in canonical order.

        Built from the columns on first use and then kept.
        """
        if self._rows is None:
            ids = [r.repo_id for r in self.repos]
            self._set(_rows=tuple(
                PopularityEvent(ids[row], EVENT_KINDS[kind], time, delta)
                for row, kind, time, delta in zip(
                    self.event_repo.tolist(), self.event_kind.tolist(),
                    self.event_time.tolist(), self.event_delta.tolist(),
                )
            ))
        return self._rows

    @property
    def repo_ids(self) -> tuple[str, ...]:
        return tuple(r.repo_id for r in self.repos)

    def __len__(self) -> int:
        return len(self.repos)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.repos == other.repos
            and self.grid == other.grid
            and self.captured_at == other.captured_at
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in _COLUMNS
            )
        )


def _columns(
    events: Iterable[PopularityEvent],
) -> tuple[list[str], list[int], list[int], list[int]]:
    """Event objects as column lists: repo ids, kind codes, times, deltas."""
    events = tuple(events)
    return (
        [e.repo_id for e in events],
        [EVENT_KINDS.index(e.kind) for e in events],
        [e.occurred_at for e in events],
        [e.delta for e in events],
    )


def _event_fault(
    repos: tuple[RepoRecord, ...],
    row_of: dict[str, int],
    repo_id: str,
    time: int,
    grid: TimeGrid,
    line: int | None,
) -> WtpsError:
    """The error for one faulty event, checked in the order unknown repo,
    before creation, outside the grid; ``line`` selects the loader's words."""
    row = row_of.get(repo_id)
    if row is None:
        message = f"event references unknown repo_id {repo_id!r}"
        return UnknownRepo(message) if line is None else ParseError(line, message)
    created = repos[row].created_at
    if time < created:
        if line is None:
            return EventBeforeCreation(
                f"event at {time} predates creation of {repo_id!r} at {created}"
            )
        return EventBeforeCreation(
            f"line {line}: event at {format_timestamp(time)} "
            f"predates creation of {repo_id!r}"
        )
    return EventOutsideGrid(f"timestamp {time} outside grid [{grid.epoch}, {grid.end})")


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
    The sums stay in int64 throughout (``np.add.at``, not float weights).
    """
    grid = corpus.grid
    shape = (len(EVENT_KINDS), len(corpus.repos), grid.interval_count)
    interval = (corpus.event_time - grid.epoch) // grid.interval_seconds
    cell = np.ravel_multi_index((corpus.event_kind, corpus.event_repo, interval), shape)
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts.reshape(-1), cell, corpus.event_delta)
    return BinnedCounts(
        repo_ids=corpus.repo_ids,
        interval_count=grid.interval_count,
        forks=counts[0],
        stars=counts[1],
    )
