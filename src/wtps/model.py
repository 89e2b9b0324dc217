"""Shared domain types, time binning, and the corpus container.

Timestamps are integer UTC epoch seconds throughout; durations are whole
days. "Months" are normalized to fixed 30-day windows so that every
supported interval width (30/21/14/7 days) behaves uniformly; calendar-aware
binning is deliberately not implemented.

Nothing here imports numpy up front: event columns are ``array`` columns and
binned counts are int lists, and only a large corpus is sorted, binned and
scored by numpy (see ``_vectorized``). The documented ndarray attributes
import numpy when they are first read.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from functools import cache
from itertools import compress, islice, repeat
from operator import index, le
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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

if TYPE_CHECKING:
    import numpy as np

SECONDS_PER_DAY = 86_400
# The widest interval whose length in seconds fits int64.
_WIDEST_DAYS = (2**63 - 1) // SECONDS_PER_DAY
# The interval widths ``wtps.stats.interval_sweep`` bins at by default.
DEFAULT_SWEEP_DAYS: tuple[int, ...] = (30, 21, 14, 7)
# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the first and last second
# with a four-digit UTC year: the range of every record time.
FIRST_SECOND, LAST_SECOND = -62_135_596_800, 253_402_300_799


def _check_time(name: str, value: int) -> None:
    # The message leaves the value out: a huge int cannot be formatted.
    if not FIRST_SECOND <= value <= LAST_SECOND:
        raise ValueError(f"{name} must lie in UTC years 0001-9999")


def _integer_field(record, name: str) -> int:
    """The field ``name`` of ``record`` as an int: any integer type but
    ``bool`` converts, such as numpy's, and is stored back; anything else
    raises ``ValueError`` naming ``name``."""
    value = getattr(record, name)
    if type(value) is not int:
        try:
            if isinstance(value, bool):
                raise TypeError
            value = index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        object.__setattr__(record, name, value)
    return value


def _set(record, **values) -> None:
    """Store ``values`` in the fields of the frozen ``record``."""
    for name, value in values.items():
        object.__setattr__(record, name, value)


def _check_string(name: str, value) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")


class CoefficientKind(Enum):
    """Clustering-coefficient definitions supported on the follower graph
    (``wtps.graph``)."""

    GLOBAL_TRANSITIVITY = "global_transitivity"
    AVERAGE_LOCAL = "average_local"
    BIPARTITE_LATAPY = "bipartite_latapy"


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
        _check_string("repo_id", self.repo_id)
        _check_string("full_name", self.full_name)
        if self.primary_language is not None and not isinstance(self.primary_language, str):
            raise ValueError("primary_language must be a string or null")
        followers = self.follower_ids
        if not (isinstance(followers, (list, tuple))
                and all(isinstance(follower, str) for follower in followers)):
            raise ValueError("follower_ids must be a list of strings")
        _set(self, follower_ids=tuple(followers))
        if not self.repo_id:
            raise ValueError("repo_id must be non-empty")
        _check_time("created_at", _integer_field(self, "created_at"))
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
            if not 0 <= _integer_field(self, name) < 2**63:
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
        _check_string("repo_id", self.repo_id)
        if not isinstance(self.kind, EventKind):
            raise ValueError(f"kind must be an EventKind, got {self.kind!r}")
        _check_time("occurred_at", _integer_field(self, "occurred_at"))
        if _integer_field(self, "delta") == 0:
            raise ValueError("delta must be nonzero")

    def sort_key(self) -> tuple[int, str, str, int]:
        return (self.occurred_at, self.repo_id, self.kind.value, self.delta)


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """Community-wide sequence of fixed-width, half-open time intervals.

    Interval ``i`` covers ``[epoch + i*w, epoch + (i+1)*w)`` where ``w`` is
    ``interval_days`` in seconds, so every covered timestamp lands in exactly
    one bin. A width's length in seconds fits int64, so both binning
    kernels take every width a grid holds.
    """

    epoch: int
    interval_days: int
    interval_count: int

    def __post_init__(self) -> None:
        _integer_field(self, "epoch")
        days = _integer_field(self, "interval_days")
        if days <= 0:
            raise ValueError("interval_days must be positive")
        if days > _WIDEST_DAYS:
            # The message leaves the width out: a huge int cannot be formatted.
            raise ValueError(
                f"interval width of more than {_WIDEST_DAYS} days overflows 64-bit seconds"
            )
        if _integer_field(self, "interval_count") <= 0:
            raise ValueError("interval_count must be positive")

    @property
    def interval_seconds(self) -> int:
        return self.interval_days * SECONDS_PER_DAY

    @property
    def end(self) -> int:
        """First timestamp not covered by the grid."""
        return self.epoch + self.interval_count * self.interval_seconds


def grid_for_times(times: Iterable[int], interval_days: int) -> TimeGrid:
    """Build the minimal grid covering every timestamp in ``times``.

    The epoch anchors at the earliest timestamp truncated to 00:00:00 UTC of
    its day; the interval count is the smallest number of half-open windows
    that covers the latest timestamp.
    """
    ts = list(times)
    if not ts:
        raise EmptyEventSet("cannot build a grid from an empty timestamp set")
    earliest, latest = min(ts), max(ts)
    epoch = earliest - earliest % SECONDS_PER_DAY
    grid = TimeGrid(epoch, interval_days, 1)  # checks the width
    return replace(grid, interval_count=(latest - epoch) // grid.interval_seconds + 1)


# Kinds by the code stored in ``Corpus.event_kind``.
EVENT_KINDS = (EventKind.FORK, EventKind.STAR)
_UNIX_ORDINAL = date(1970, 1, 1).toordinal()


@cache
def _clock() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """"HH:MM:" of each minute of a day and "SSZ" of each second of a minute."""
    return (tuple(f"{m // 60:02d}:{m % 60:02d}:" for m in range(1440)),
            tuple(f"{s:02d}Z" for s in range(60)))


def format_timestamps(times: Iterable[int]) -> Iterator[str]:
    """``format_timestamp`` of each time, formatting each date once."""
    minutes, seconds = _clock()
    dates: dict[int, str] = {}
    for ts in times:
        day = ts // SECONDS_PER_DAY
        try:
            text = dates[day]
        except KeyError:
            _check_time("timestamp", ts)
            text = dates[day] = date.fromordinal(day + _UNIX_ORDINAL).isoformat() + "T"
        yield text + minutes[ts // 60 % 1440] + seconds[ts % 60]


def format_timestamp(ts: int) -> str:
    """Render UTC epoch seconds as canonical ISO-8601 ("YYYY-MM-DDTHH:MM:SSZ").

    The year always has four digits; a time outside UTC years 0001-9999
    raises ``ValueError``.
    """
    return next(format_timestamps((ts,)))


def _grid_rule(repos: Sequence[RepoRecord], times: Sequence[int], interval_days: int) -> TimeGrid:
    """The grid covering the event times, else the repositories' creation times."""
    if times:
        return grid_for_times((min(times), max(times)), interval_days)
    return grid_for_times((r.created_at for r in repos), interval_days)


# Sorting, binning and scoring in pure Python cost about 0.15 us per event and
# per binned cell, 100 times numpy's kernels, and importing numpy about 0.15 s.
# Sized by its events plus the cells of a weekly grid over its span, a corpus
# from this size on is handed to numpy; below it, even ``sweep``, which bins
# and scores five times at widths of a week or more, does less work in pure
# Python than numpy's import costs.
_NUMPY_FROM = 200_000
_WEEK = 7 * SECONDS_PER_DAY


def _vectorized(events: int, repos: int, span: int) -> bool:
    """Whether numpy sorts, bins and scores a corpus of ``events`` events and
    ``repos`` repositories whose latest event is ``span`` seconds after its
    grid's epoch; regridding keeps the epoch, so the answer holds at every
    width."""
    return events + len(EVENT_KINDS) * repos * (span // _WEEK + 1) >= _NUMPY_FROM


def _column_view(name: str, dtype: str, doc: str) -> property:
    """A documented ndarray attribute over the array column ``name``: built
    on first access, without a copy where the item sizes agree, read-only,
    and kept."""

    def view(self) -> np.ndarray:
        column = self._views.get(name)
        if column is None:
            import numpy as np

            # numpy's own int64 and intp, not an equal "q" dtype, which its
            # kernels (np.add.at among them) take a slow casting path for.
            source, want = getattr(self, name), np.dtype(dtype)
            column = (np.frombuffer(source, dtype=want) if source.itemsize == want.itemsize
                      else np.frombuffer(source, dtype=source.typecode).astype(want))
            column.setflags(write=False)
            self._views[name] = column
        return column

    return property(view, doc=doc)


@dataclass(frozen=True, slots=True, init=False)
class Corpus:
    """An immutable collection of repositories, events, and their grid.

    Construction canonicalizes ordering (repos by id, events by
    ``(occurred_at, repo_id, kind, delta)``) and validates all cross-record
    invariants, so any Corpus in hand is known-good and safe to share.

    Events are stored as four parallel ``array`` columns in that order. The
    documented ndarray attributes ``event_repo`` (row into ``repos``, intp),
    ``event_kind`` (0 fork, 1 star, int8), ``event_time`` (epoch seconds,
    int64) and ``event_delta`` (int64) view them; each is built on first
    access, read-only, and kept. ``event_count`` and ``event_rows()`` read
    the columns without numpy. ``events`` is the row view of the same data
    as ``PopularityEvent`` objects, also built on first use.

    ``captured_at`` is the corpus capture timestamp. A given one must not
    precede any repository's creation; when not supplied it resolves to the
    later of the latest event time and the latest creation time.
    """

    repos: tuple[RepoRecord, ...]
    grid: TimeGrid
    captured_at: int
    _repo: array = field(repr=False)
    _kind: array = field(repr=False)
    _time: array = field(repr=False)
    _delta: array = field(repr=False)
    _rows: tuple[PopularityEvent, ...] | None = field(repr=False, compare=False)
    _views: dict = field(repr=False, compare=False)

    __hash__ = None  # the generated hash would fail on the array columns

    event_repo = _column_view("_repo", "intp", "Row into ``repos`` of each event.")
    event_kind = _column_view("_kind", "int8", "Kind code of each event: 0 fork, 1 star.")
    event_time = _column_view("_time", "int64", "Epoch seconds of each event.")
    event_delta = _column_view("_delta", "int64", "Signed delta of each event.")

    def __init__(
        self,
        repos: Iterable[RepoRecord],
        events: Iterable[PopularityEvent],
        grid: TimeGrid,
        captured_at: int | None = None,
    ) -> None:
        _set(self, repos=tuple(repos), grid=grid, captured_at=captured_at)
        self.__post_init__(*_columns(events))

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
        faulty event is reported by its earliest line, and a capture time
        before a creation as the manifest's, in the loader's words; without,
        by its canonical position in the corpus's own words.
        """
        if self.captured_at is not None:
            _check_time("captured_at", _integer_field(self, "captured_at"))
            newest = max(self.repos, key=lambda r: r.created_at, default=None)
            if newest is not None and self.captured_at < newest.created_at:
                message = f"captured_at precedes the creation of {newest.repo_id!r}"
                raise ValueError(message) if lines is None else ParseError(1, f"manifest {message}")
        repos = tuple(sorted(self.repos, key=lambda r: r.repo_id))
        row_of: dict[str, int] = {}
        for row, record in enumerate(repos):
            if record.repo_id in row_of:
                raise DuplicateRepoId(f"duplicate repo_id {record.repo_id!r}")
            row_of[record.repo_id] = row

        # An event is valid from its repository's creation and the grid's
        # epoch up to the grid's end; an unknown repo_id gets the extra row
        # ``len(repos)``, valid nowhere.
        grid, end = self.grid, self.grid.end
        unknown = len(repos)
        rows = list(map(row_of.get, repo_ids, repeat(unknown)))
        floor = [max(r.created_at, grid.epoch) for r in repos] + [end]
        lows = list(map(floor.__getitem__, rows))
        last = max(times, default=grid.epoch)
        if not all(map(le, lows, times)) or last >= end:
            faulty = [i for i, (low, time) in enumerate(zip(lows, times))
                      if not low <= time < end]
            i = faulty[0] if lines is not None else min(
                faulty, key=lambda j: (times[j], repo_ids[j], kinds[j], deltas[j])
            )
            raise _event_fault(repos, row_of, repo_ids[i], times[i], grid,
                               None if lines is None else lines[i])
        # Binned cells and interval totals are int64; bounding the summed
        # magnitudes bounds every one of them, so none can wrap around.
        activity = sum(map(abs, deltas))
        if activity >= 2**63:
            raise DeltaOverflow("event delta magnitudes sum to 2**63 or more")

        # Saved files are in canonical order already; other input is sorted,
        # by numpy when it will bin the corpus too (see ``bin_events``).
        columns = rows, kinds, times, deltas
        if not all(map(le, zip(times, rows, kinds, deltas),
                       islice(zip(times, rows, kinds, deltas), 1, None))):
            if _vectorized(len(times), len(repos), last - grid.epoch):
                import numpy as np

                columns = [np.asarray(column, dtype=np.int64) for column in columns]
                row, kind, time, delta = columns
                order = np.lexsort((delta, kind, row, time))
                columns = [column[order].astype(code).tobytes()
                           for code, column in zip("qbqq", columns)]
            else:
                time, row, kind, delta = zip(*sorted(zip(times, rows, kinds, deltas)))
                columns = row, kind, time, delta
        self._store(repos, *map(array, "qbqq", columns))
        if self.captured_at is None:
            latest = (*self._time[-1:], *(r.created_at for r in repos))
            _set(self, captured_at=max(latest, default=grid.epoch))

    def _store(self, repos, rows: array, kind: array, time: array, delta: array) -> None:
        _set(self, repos=repos, _repo=rows, _kind=kind, _time=time, _delta=delta,
             _rows=None, _views={})

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
        grid = _grid_rule(repos, times, interval_days)
        _set(corpus, repos=repos, grid=grid, captured_at=captured_at)
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
        # ``time`` is sorted, so its ends bound it.
        _set(corpus, grid=_grid_rule(repos, time[:1] + time[-1:], interval_days),
             captured_at=self.captured_at)
        corpus._store(repos, rows, kind, time, delta)
        return corpus

    def regrid(self, interval_days: int) -> "Corpus":
        """Return a copy of this corpus re-binned onto a new interval width."""
        return self._derive(self.repos, interval_days, self._repo, self._kind,
                            self._time, self._delta)

    def subset(self, repo_ids: Iterable[str]) -> "Corpus":
        """The given repositories and their events, on a grid rebuilt by the
        ``build`` rule at the same width; the capture time is kept."""
        wanted = set(repo_ids)
        kept_rows = [row for row, r in enumerate(self.repos) if r.repo_id in wanted]
        new_row = {old: new for new, old in enumerate(kept_rows)}
        keep = [row in new_row for row in self._repo]
        rows, kind, time, delta = (array(column.typecode, compress(column, keep))
                                   for column in (self._repo, self._kind, self._time, self._delta))
        return self._derive(tuple(self.repos[row] for row in kept_rows), self.grid.interval_days,
                            array("q", map(new_row.__getitem__, rows)), kind, time, delta)

    @property
    def events(self) -> tuple[PopularityEvent, ...]:
        """The events as ``PopularityEvent`` rows in canonical order.

        Built from the columns on first use and then kept.
        """
        if self._rows is None:
            ids = [r.repo_id for r in self.repos]
            _set(self, _rows=tuple(
                PopularityEvent(ids[row], EVENT_KINDS[kind], time, delta)
                for row, kind, time, delta in self.event_rows()
            ))
        return self._rows

    @property
    def event_count(self) -> int:
        return len(self._time)

    def event_rows(self) -> Iterator[tuple[int, int, int, int]]:
        """``(row, kind code, time, delta)`` of each event in canonical order,
        read from the columns without numpy."""
        return zip(self._repo, self._kind, self._time, self._delta)

    @property
    def repo_ids(self) -> tuple[str, ...]:
        return tuple(r.repo_id for r in self.repos)


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


def _int64_view(values: Sequence, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only int64 ndarray of ``values``; numpy is imported here."""
    import numpy as np

    view = np.array(values, dtype=np.int64).reshape(shape)
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False, init=False)
class BinnedCounts:
    """Signed fork/star delta totals per repository and grid interval.

    ``forks`` and ``stars`` are read-only int64 matrices of shape
    ``(len(repo_ids), interval_count)``; row order follows ``repo_ids``,
    which is sorted. Negative deltas pass through binning unchanged.

    The counts are held either as int lists, one per repository, or, when
    ``vectorized``, as the two matrices: numpy's binning kernel gives those,
    and given ndarrays are made read-only and kept as they are. ``rows`` and
    ``totals`` read either form without numpy; the matrices, and the
    ``deltas`` rows and ``interval_totals`` read from them, are ndarrays built
    from the lists on first access and kept.
    """

    repo_ids: tuple[str, ...]
    interval_count: int
    vectorized: bool
    _rows: dict = field(repr=False)  # EventKind -> one int list per repository
    _index: dict = field(repr=False)
    _views: dict = field(repr=False)

    def __init__(self, repo_ids: Sequence[str], interval_count: int,
                 forks: np.ndarray, stars: np.ndarray) -> None:
        shape = (len(repo_ids), interval_count)
        for matrix in (forks, stars):
            if matrix.shape != shape:
                raise ValueError(f"matrix shape {matrix.shape} does not match {shape}")
            matrix.setflags(write=False)
        self._assign(repo_ids, interval_count, {}, {EventKind.FORK: forks, EventKind.STAR: stars})

    def _assign(self, repo_ids: Sequence[str], interval_count: int, rows: dict,
                matrices: dict) -> None:
        _set(self, repo_ids=tuple(repo_ids), interval_count=interval_count,
             vectorized=bool(matrices), _rows=rows,
             _index={rid: i for i, rid in enumerate(repo_ids)}, _views=matrices)

    @property
    def forks(self) -> np.ndarray:
        return self.matrix(EventKind.FORK)

    @property
    def stars(self) -> np.ndarray:
        return self.matrix(EventKind.STAR)

    def row_index(self, repo_id: str) -> int:
        try:
            return self._index[repo_id]
        except KeyError:
            raise UnknownRepo(f"unknown repo_id {repo_id!r}") from None

    def rows(self, kind: EventKind) -> list[list[int]]:
        """Each repository's per-interval counts of one kind as int lists, in
        ``repo_ids`` order; the lists are shared, not copied."""
        if kind not in self._rows:
            self._rows[kind] = self._views[kind].tolist()
        return self._rows[kind]

    def totals(self, kind: EventKind) -> list[int]:
        """Community-wide per-interval totals of one kind (column sums) as ints."""
        if self.vectorized:
            return self.matrix(kind).sum(axis=0).tolist()
        return [sum(column) for column in zip(*self.rows(kind))]

    def matrix(self, kind: EventKind) -> np.ndarray:
        if kind not in self._views:
            self._views[kind] = _int64_view(self._rows[kind],
                                            (len(self.repo_ids), self.interval_count))
        return self._views[kind]

    def deltas(self, repo_id: str, kind: EventKind) -> np.ndarray:
        """Per-interval signed deltas for one repository."""
        return self.matrix(kind)[self.row_index(repo_id)]

    def interval_totals(self, kind: EventKind) -> np.ndarray:
        """Community-wide per-interval delta totals (column sums)."""
        key = (kind, "totals")
        if key not in self._views:
            self._views[key] = _int64_view(self.totals(kind), (self.interval_count,))
        return self._views[key]


def bin_events(corpus: Corpus) -> BinnedCounts:
    """Bin every event of the corpus onto its grid.

    Pure function: counts[r][t][kind] is the sum of deltas of that kind for
    repo r in interval t, so per-repo totals are conserved under binning.
    The sums are exact and fit int64 by the corpus's ``Σ|delta|`` bound. A
    corpus that ``_vectorized`` calls large is binned by numpy (``np.add.at``)
    into ``vectorized`` counts, a smaller one by one pass over the events into
    int lists.
    """
    grid = corpus.grid
    n, count = len(corpus.repos), grid.interval_count
    span = corpus._time[-1] - grid.epoch if corpus.event_count else 0
    if _vectorized(corpus.event_count, n, span):
        import numpy as np

        shape = (len(EVENT_KINDS), n, count)
        interval = (corpus.event_time - grid.epoch) // grid.interval_seconds
        cell = np.ravel_multi_index((corpus.event_kind, corpus.event_repo, interval), shape)
        counts = np.zeros(shape, dtype=np.int64)
        np.add.at(counts.reshape(-1), cell, corpus.event_delta)
        return BinnedCounts(corpus.repo_ids, count, counts[0], counts[1])
    rows = tuple([[0] * count for _ in range(n)] for _ in EVENT_KINDS)
    # Events are sorted by time, so the events of each interval are one run.
    start = 0
    for t in range(count):
        stop = bisect_left(corpus._time, grid.epoch + (t + 1) * grid.interval_seconds, start)
        for row, kind, delta in zip(corpus._repo[start:stop], corpus._kind[start:stop],
                                    corpus._delta[start:stop]):
            rows[kind][row][t] += delta
        start = stop
    binned = object.__new__(BinnedCounts)
    binned._assign(corpus.repo_ids, count, dict(zip(EVENT_KINDS, rows)), {})
    return binned
