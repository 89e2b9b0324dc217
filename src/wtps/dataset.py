"""JSON-lines dataset format: loading, saving, and manifests.

File layout (schema_version 1), one JSON object per line:

  manifest  {"schema_version": 1, "captured_at": ISO, "repo_count": N,
             "source": "file" | "live_api"}         -- first line, written on
                                                        save, optional on load
  repo      {"repo_id", "full_name", "created_at", "primary_language",
             "size_kb", "owner_followers", "forks_total", "stars_total",
             "watchers_total", "follower_ids"}
  event     {"repo_id", "kind", "occurred_at", "delta"}  -- delta may be
                                                            omitted (defaults
                                                            to +1)

Timestamps are ISO-8601 UTC ("...Z"). Saving is canonical and deterministic:
repos sort by repo_id, events by (occurred_at, repo_id, kind, delta), keys keep the
documented order, so saving the same corpus twice is byte-identical and
save -> load is the identity.
"""

from __future__ import annotations

import json
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from enum import Enum
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from .errors import ParseError
from .model import (EVENT_KINDS, FIRST_SECOND, LAST_SECOND, Corpus, EventKind,
                    PopularityEvent, RepoRecord, _check_string, _integer_field,
                    format_timestamp, format_timestamps)

SCHEMA_VERSION = 1

# Each line type's keys are its record's fields, in order.
_REPO_KEYS = tuple(f.name for f in fields(RepoRecord))
_EVENT_KEYS = tuple(f.name for f in fields(PopularityEvent))
_EVENT_KEY_SETS = (set(_EVENT_KEYS), set(_EVENT_KEYS[:3]))
_KIND_NAMES = tuple(kind.value for kind in EVENT_KINDS)
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# An event line as ``save_corpus`` writes it: a repo_id free of escapes, of
# control characters and of undecodable bytes, an in-range UTC time of day
# and, when given, a delta without a leading zero that fits int64. ``[0-9]``,
# not ``\d``, which also matches other scripts' digits. Lines that do not
# match, or whose date does not exist, are decoded as JSON.
_CANONICAL_EVENT = re.compile(
    r'\{"repo_id":"([^"\\\x00-\x1f\udc80-\udcff]*)","kind":"(fork|star)",'
    r'"occurred_at":"([0-9]{4}-[0-9]{2}-[0-9]{2})T'
    r'([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])Z"'
    r'(?:,"delta":(-?[1-9][0-9]{0,17}))?\}'
)
# Bytes that are not UTF-8, as the "surrogateescape" error handler reads them.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class DatasetSource(Enum):
    FILE = "file"
    LIVE_API = "live_api"


@dataclass(frozen=True, slots=True)
class DatasetManifest:
    """Header describing a saved dataset file."""

    schema_version: int
    captured_at: int
    repo_count: int
    source: DatasetSource

    def __post_init__(self) -> None:
        for name in ("schema_version", "captured_at", "repo_count"):
            _integer_field(self, name)
        if not isinstance(self.source, DatasetSource):
            raise ValueError(f"source must be a DatasetSource, got {self.source!r}")

    def to_json_dict(self) -> dict:
        """The manifest line as written to a dataset file, in key order."""
        return _line_dict(
            self, captured_at=format_timestamp(self.captured_at), source=self.source.value
        )


_MANIFEST_KEYS = tuple(f.name for f in fields(DatasetManifest))


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp to UTC epoch seconds.

    Accepts a trailing "Z" or an explicit offset; a naive timestamp is read
    as UTC. Fractions of a second are floored. The instant must fall in UTC
    years 0001-9999, which ``format_timestamp`` writes back unchanged.
    """
    if not isinstance(text, str):
        raise ValueError(f"timestamp must be a string, got {type(text).__name__}")
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    moment = datetime.fromisoformat(raw)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    seconds = (moment - _EPOCH) // timedelta(seconds=1)
    if not FIRST_SECOND <= seconds <= LAST_SECOND:
        raise ValueError(f"timestamp {text!r} is outside UTC years 0001-9999")
    return seconds


def _epoch_day(date: str) -> int | None:
    """``parse_timestamp`` of a "YYYY-MM-DD" date, or None if it is no date."""
    try:
        return parse_timestamp(date)
    except ValueError:
        return None


@contextmanager
def _on_line(line_no: int) -> Iterator[None]:
    """Re-raise a ValueError of the block as a ParseError of line ``line_no``."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from exc


def _check_keys(obj: dict, expected: tuple[str, ...], optional: frozenset[str],
                what: str) -> None:
    keys = set(obj)
    missing = set(expected) - optional - keys
    if missing:
        raise ValueError(f"{what} line missing keys: {sorted(missing)}")
    extra = keys - set(expected)
    if extra:
        raise ValueError(f"{what} line has unknown keys: {sorted(extra)}")


def _parse_repo(obj: dict) -> RepoRecord:
    _check_keys(obj, _REPO_KEYS, frozenset(), "repository")
    return RepoRecord(**{**obj, "created_at": parse_timestamp(obj["created_at"])})


def _parse_event(obj: dict) -> PopularityEvent:
    if obj.keys() not in _EVENT_KEY_SETS:
        _check_keys(obj, _EVENT_KEYS, frozenset({"delta"}), "event")
    kind = obj["kind"]
    _check_string("kind", kind)
    if kind not in _KIND_CODES:
        raise ValueError(f"unknown event kind {kind!r}")
    return PopularityEvent(**{**obj, "kind": EventKind(kind),
                              "occurred_at": parse_timestamp(obj["occurred_at"])})


def _parse_manifest(obj: dict, line_no: int) -> DatasetManifest:
    if line_no != 1:
        raise ValueError("manifest line allowed only as line 1")
    _check_keys(obj, _MANIFEST_KEYS, frozenset(), "manifest")
    source = obj["source"]
    _check_string("source", source)
    if source not in {s.value for s in DatasetSource}:
        raise ValueError(f"unknown source {source!r}")
    manifest = DatasetManifest(**{**obj, "captured_at": parse_timestamp(obj["captured_at"]),
                                  "source": DatasetSource(source)})
    if manifest.schema_version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {manifest.schema_version}")
    return manifest


def load_corpus(path: str | Path, interval_days: int = 30) -> Corpus:
    """Load a JSON-lines dataset into a validated corpus.

    The grid is derived from the events via the minimal-cover rule; a file
    whose repositories have no events seeds the grid with creation times.

    Raises:
        ParseError: malformed line, unknown/missing keys, empty file, event
            referencing an unknown repository, a manifest mismatch, or a
            manifest capture time before a repository's creation -- all
            reported with 1-based line numbers.
        DuplicateRepoId: two repository lines share a repo_id.
        EventBeforeCreation: an event predates its repository's creation.
    """
    path = Path(path)
    manifest: DatasetManifest | None = None
    repos: list[RepoRecord] = []
    # Event columns in file order.
    lines = array("q")
    repo_ids: list[str] = []
    kinds: list[int] = []
    times = array("q")
    deltas: list[int] = []
    shared_ids: dict[str, str] = {}  # one string object per repo_id
    days: dict[str, int | None] = {}  # epoch second of each date's midnight
    canonical = _CANONICAL_EVENT.fullmatch
    line_no = 0  # the last line read
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            # Canonical event lines skip JSON decoding; every other line,
            # faulty ones included, is decoded and checked below.
            match = canonical(text)
            if match is not None:
                repo_id, kind, date, hour, minute, second, delta = match.groups()
                try:
                    day = days[date]
                except KeyError:
                    day = days[date] = _epoch_day(date)
                if day is not None:
                    lines.append(line_no)
                    repo_ids.append(shared_ids.setdefault(repo_id, repo_id))
                    kinds.append(_KIND_CODES[kind])
                    times.append(day + 3600 * int(hour) + 60 * int(minute) + int(second))
                    deltas.append(1 if delta is None else int(delta))
                    continue
            if not text:
                raise ParseError(line_no, "blank line")
            bad = _UNDECODABLE.search(text)
            if bad is not None:
                raise ParseError(
                    line_no, f"invalid UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x}"
                )
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON: {exc.msg}") from exc
            except (ValueError, RecursionError) as exc:  # too many digits or too deep
                raise ParseError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(line_no, "line is not a JSON object")
            with _on_line(line_no):
                if "schema_version" in obj:
                    manifest = _parse_manifest(obj, line_no)
                elif "kind" in obj:
                    event = _parse_event(obj)
                    lines.append(line_no)
                    repo_ids.append(shared_ids.setdefault(event.repo_id, event.repo_id))
                    kinds.append(_KIND_CODES[event.kind.value])
                    times.append(event.occurred_at)
                    deltas.append(event.delta)
                elif "full_name" in obj:
                    repos.append(_parse_repo(obj))
                else:
                    raise ValueError("unrecognized line type")
    if line_no == 0:
        raise ParseError(1, "empty dataset file")
    if not repos:
        raise ParseError(line_no, "dataset contains no repository lines")
    if manifest is not None and manifest.repo_count != len(repos):
        raise ParseError(
            1, f"manifest repo_count {manifest.repo_count} != {len(repos)} repository lines"
        )
    return Corpus._from_columns(
        tuple(repos),
        repo_ids,
        kinds,
        times,
        deltas,
        interval_days,
        captured_at=manifest.captured_at if manifest else None,
        lines=lines,
    )


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def _line_dict(record, **rendered) -> dict:
    """A record as its dataset line: its fields in order, ``rendered`` values first."""
    return {
        f.name: rendered[f.name] if f.name in rendered else getattr(record, f.name)
        for f in fields(record)
    }


def _repo_dict(r: RepoRecord) -> dict:
    return _line_dict(r, created_at=format_timestamp(r.created_at))


def save_corpus(
    corpus: Corpus,
    path: str | Path,
    source: DatasetSource = DatasetSource.FILE,
) -> DatasetManifest:
    """Write a corpus to the canonical JSON-lines format.

    The manifest timestamp comes from the corpus, never the wall clock, so
    re-saving an unchanged corpus is byte-identical.
    """
    path = Path(path)
    manifest = DatasetManifest(
        schema_version=SCHEMA_VERSION,
        captured_at=corpus.captured_at,
        repo_count=len(corpus.repos),
        source=source,
    )
    header = _dump(manifest.to_json_dict()) + "\n"
    ids = [encode_basestring(r.repo_id) for r in corpus.repos]
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(header)
        handle.writelines(_dump(_repo_dict(r)) + "\n" for r in corpus.repos)
        handle.writelines(
            f'{{"repo_id":{ids[row]},"kind":"{_KIND_NAMES[kind]}",'
            f'"occurred_at":"{stamp}","delta":{delta}}}\n'
            for (row, kind, _, delta), stamp in zip(
                corpus.event_rows(),
                format_timestamps(map(itemgetter(2), corpus.event_rows())),
            )
        )
    return manifest
