"""Hypothesis properties of the columnar event store and its file format.

Each property has a plain reference beside it: aware ``datetime`` arithmetic
on the fields a timestamp is spelled from for ``parse_timestamp``,
``parse_timestamp`` for the event times ``load_corpus`` reads, the same
lines spelled with spaces (so decoded as JSON) for canonical event lines,
``json.dumps(indent=2)`` for ``to_json`` and for the table writers (with the
whole-table ``to_csv`` for their CSV), a tuple sort of the input columns for
both event sorts, a loop over ``PopularityEvent`` rows for binning,
``Corpus.build`` for regrid and subset, exact integer shares for the
weights, ``Fraction`` values rounded once for the scores, the former fsum
kernel (``synth.fsum_overlap_reference``) on chained
``FollowerGraph.remove_repo`` calls for the deletion series, and
``math.fsum`` for the exact integer sums the twin-class kernel keeps. The
last property mutates the shipped samples and requires every CLI command to
exit with a typed code and to leave no output when it fails.
"""

import json
import math
import random
import struct
import tempfile
from datetime import date, datetime, time, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wtps import ParseError, WtpsError, bin_events, compute_weights  # noqa: E402
from wtps.cli import (  # noqa: E402
    EXIT_API,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    main,
)
from wtps.dataset import load_corpus, parse_timestamp, save_corpus  # noqa: E402
from wtps.graph import (  # noqa: E402
    CoefficientKind,
    FollowerGraph,
    _exact,
    deletion_experiment,
)
from wtps import model  # noqa: E402
from wtps.model import (  # noqa: E402
    BinnedCounts,
    Corpus,
    EventKind,
    PopularityEvent,
    RepoRecord,
    replace,
)
from wtps.scoring import (  # noqa: E402
    Indicator,
    ScoreCard,
    WeightTable,
    classify_growth,
    indicator_values,
    score_all,
    unit_weights,
    wtps_interval,
    wtps_overall,
)
from wtps.serialize import (  # noqa: E402
    score_table,
    to_csv,
    to_json,
    write_score_table,
    write_table,
)
from wtps.stats import DEFAULT_SWEEP_DAYS  # noqa: E402
from conftest import COMMUNITY_SAMPLE, FOLLOWER_SAMPLE  # noqa: E402
from synth import fsum_overlap_reference  # noqa: E402

# 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59Z, the years a dataset can spell.
FIRST_TS = -62_135_596_800
LAST_TS = 253_402_300_799


# --- timestamps --------------------------------------------------------------

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# No zone, or "Z", or (sign, hours, minutes, seconds, microseconds, number of
# fields spelled: HH:MM, HH:MM:SS or HH:MM:SS.ffffff), often microseconds alone.
_ZONES = st.one_of(
    st.sampled_from(["", "Z", "z"]),
    st.tuples(st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59),
              st.integers(0, 59), st.integers(0, 999_999), st.integers(2, 4)),
    st.tuples(st.sampled_from("+-"), st.just(0), st.just(0), st.just(0),
              st.integers(1, 999_999), st.just(4)),
)


@settings(max_examples=300, deadline=None)
@given(st.dates(date(2, 1, 1), date(9998, 12, 31)),
       st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
       st.integers(0, 3), st.sampled_from("T t_x"), st.text("0123456789", max_size=9), _ZONES)
@example(date(2018, 1, 1), (0, 0, 0), 3, "T", "4", ("+", 0, 0, 0, 500_000, 4))
@example(date(2018, 1, 1), (0, 0, 0), 1, "T", "", ("-", 0, 0, 0, 1, 4))
@example(date(2018, 1, 1), (0, 0, 0), 0, "T", "", ("+", 5, 30, 0, 0, 2))
def test_parse_timestamp_floors_the_instant_its_fields_name(day, clock, parts, separator,
                                                            digits, zone):
    # The spelling: the date, then (with 1-3 time fields) the time of day and
    # the fraction, then the zone. Years 0002-9998 keep every offset in range.
    clock = [field if i < parts else 0 for i, field in enumerate(clock)]
    text, offset = day.isoformat(), timedelta(0)
    if parts:
        text += separator + ":".join(f"{field:02d}" for field in clock[:parts])
        text += f".{digits}" if digits else ""
    else:
        digits = ""
    if isinstance(zone, tuple):
        sign, hours, minutes, seconds, micro, spelled = zone
        seconds, micro = seconds if spelled > 2 else 0, micro if spelled > 3 else 0
        text += f"{sign}{hours:02d}:{minutes:02d}"
        text += f":{seconds:02d}" if spelled > 2 else ""
        text += f".{micro:06d}" if spelled > 3 else ""
        offset = timedelta(hours=hours, minutes=minutes, seconds=seconds,
                           microseconds=micro) * (-1 if sign == "-" else 1)
    else:
        text += zone
    # The instant from the fields alone: no string is parsed.
    moment = datetime.combine(day, time(*clock), tzinfo=timezone(offset))
    instant = Fraction((moment - _EPOCH) // timedelta(microseconds=1), 10**6)
    instant += Fraction(int(digits or 0), 10 ** len(digits))
    assert parse_timestamp(text) == math.floor(instant)


@st.composite
def stamp_texts(draw):
    """Timestamps near the canonical form, many of them malformed."""
    year = draw(st.sampled_from([0, 1, 999, 1970, 2018, 9999, 10000]))
    month, day = draw(st.integers(0, 13)), draw(st.integers(0, 32))
    hour, minute, second = draw(st.integers(0, 24)), draw(st.integers(0, 60)), draw(
        st.integers(0, 60)
    )
    separator = draw(st.sampled_from(["T", " ", "t"]))
    fraction = draw(st.sampled_from(["", ".5", ".000001"]))
    zone = draw(st.sampled_from(["Z", "z", "", "+00:00", "+05:30", "-23:59"]))
    pad = draw(st.sampled_from(["", " ", "\t", "\n"]))
    return (
        f"{pad}{year:04d}-{month:02d}-{day:02d}{separator}"
        f"{hour:02d}:{minute:02d}:{second:02d}{fraction}{zone}{pad}"
    )


def _reference(text):
    try:
        return parse_timestamp(text), None
    except ValueError as exc:
        return None, str(exc)


def _event_file(folder, stamps, created):
    """A one-repository dataset with one star event per stamp, on lines 2, 3, ..."""
    repo = {"repo_id": "r", "full_name": "org/r", "created_at": created,
            "primary_language": None, "size_kb": 0, "owner_followers": 0,
            "forks_total": 0, "stars_total": 0, "watchers_total": 0, "follower_ids": []}
    events = [{"repo_id": "r", "kind": "star", "occurred_at": s} for s in stamps]
    path = folder / "stamps.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in [repo, *events]), encoding="utf-8")
    return path


@settings(deadline=None)
@given(st.lists(st.one_of(stamp_texts(), st.text(max_size=22), st.integers()), max_size=8))
@example(["0000-01-01T00:00:00Z", "10000-01-01T00:00:00Z"])
@example(["2018-01-01T00:00:00z", "2018-01-01 00:00:00Z", " 2018-01-01T00:00:00Z "])
@example(["2018-01-01T00:00:00.5Z", "2018-01-01T00:00:00+05:00", "-001-01-01T00:00:00Z"])
@example(["2018-01-01T00:00\x00\x00\x00Z", "2018-02-30T00:00:00Z"])
def test_loaded_timestamps_agree_with_parse_timestamp(tmp_path_factory, stamps):
    expected = [_reference(s) for s in stamps]
    # The repository is created at the earliest valid stamp, in its own spelling.
    valid = [(value, s) for s, (value, error) in zip(stamps, expected) if error is None]
    created = min(valid)[1] if valid else "2018-01-01T00:00:00Z"
    path = _event_file(tmp_path_factory.mktemp("stamps"), stamps, created)
    bad = [i for i, (_, error) in enumerate(expected) if error is not None]
    if bad:
        with pytest.raises(ParseError) as caught:
            load_corpus(path)
        assert caught.value.line_no == 2 + bad[0]
        assert caught.value.reason == expected[bad[0]][1]
    else:
        loaded = load_corpus(path).event_time.tolist()
        assert loaded == sorted(value for value, _ in expected)


# --- canonical event lines -----------------------------------------------------

_OTHER_DIGITS = "٣３𝟗"  # Arabic-Indic, fullwidth and mathematical digits
_REPO_IDS = ("r", "A", 'a"b', "é")


@st.composite
def stamp_tokens(draw):
    """A JSON string in the canonical stamp's shape, often out of range."""
    year = draw(st.sampled_from([0, 1, 1969, 1970, 2018, 9999]))
    month, day = draw(st.integers(0, 13)), draw(st.integers(0, 32))
    hour, minute, second = (draw(st.integers(0, 25)), draw(st.integers(0, 61)),
                            draw(st.integers(0, 61)))
    stamp = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.sampled_from([i for i, c in enumerate(stamp) if c.isdigit()]))
        stamp = stamp[:at] + draw(st.sampled_from(_OTHER_DIGITS)) + stamp[at + 1:]
    return f'"{stamp}"'


_event_tokens = st.tuples(
    st.one_of(st.sampled_from(_REPO_IDS).map(lambda r: json.dumps(r, ensure_ascii=False)),
              st.sampled_from(['"\\u0041"', '"a\\"b"', '"r\x01"', '""', '"é\\u00e9"'])),
    st.sampled_from(['"fork"', '"star"', '"watch"', "1"]),
    stamp_tokens(),
    st.one_of(
        st.none(),
        st.integers(-(10**20), 10**20).map(str),
        st.sampled_from(["0", "-0", "01", "-01", "1.0", "true", '"1"', "9" * 19,
                         "-" + "9" * 18, *_OTHER_DIGITS]),
    ),
)


def _event_line(tokens, comma, colon):
    """One event line from its value tokens, in the canonical key order."""
    keys = ("repo_id", "kind", "occurred_at", "delta")
    return "{" + comma.join(
        f'"{key}"{colon}{token}' for key, token in zip(keys, tokens) if token is not None
    ) + "}"


def _outcome(path):
    """The loaded corpus, or the error's type, message and line."""
    try:
        return load_corpus(path), None
    except WtpsError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line_no", None))


@settings(max_examples=300, deadline=None)
@given(st.lists(_event_tokens, min_size=1, max_size=4), st.sampled_from(["\n", "\r\n", "\r"]))
@example([('"r"', '"star"', '"2018-01-0٣T00:00:00Z"', None)], "\n")
@example([('"r"', '"star"', '"2018-01-01T1٣:00:00Z"', "1")], "\n")
@example([('"r"', '"star"', '"2018-01-01T00:0３:5𝟗Z"', "1")], "\n")
@example([('"r"', '"fork"', '"2018-01-01T00:00:00Z"', "٣")], "\n")
@example([('"a\\"b"', '"star"', '"2018-01-01T00:00:00Z"', "2"),
          ('"\\u0041"', '"fork"', '"2018-01-01T00:00:00Z"', "-1")], "\n")
@example([('"r\x01"', '"star"', '"2018-01-01T00:00:00Z"', None)], "\n")
@example([('"r"', '"star"', '"2018-01-01T24:00:00Z"', None)], "\n")
@example([('"r"', '"star"', '"2018-01-01T00:00:60Z"', None)], "\n")
@example([('"r"', '"star"', '"2019-02-29T00:00:00Z"', None)], "\n")
@example([('"r"', '"star"', '"0000-01-01T00:00:00Z"', None)], "\n")
@example([('"r"', '"star"', '"2018-01-01T00:00:00Z"', delta)
          for delta in ("3", None, "9" * 18, "1" + "0" * 18)], "\n")
@example([('"r"', '"star"', '"2018-01-01T00:00:00Z"', "0")], "\n")
@example([('"r"', '"star"', '"2018-01-01T00:00:00Z"', "-0")], "\n")
@example([('"r"', '"star"', '"2018-01-01T00:00:00Z"', "01")], "\n")
@example([('"r"', '"star"', '"2018-01-01T00:00:00Z"', "9" * 19)], "\n")
@example([('"é"', '"fork"', '"2018-01-01T00:00:00Z"', "-2"),
          ('"r"', '"star"', '"2018-01-02T03:04:05Z"', None)], "\r\n")
@example([('"é"', '"fork"', '"2018-01-01T00:00:00Z"', "-2"),
          ('"r"', '"star"', '"2018-01-02T03:04:05Z"', None)], "\r")
def test_canonical_event_lines_load_as_their_spaced_spelling(tmp_path_factory, events, newline):
    # The spaced spelling never matches the canonical pattern, so it is
    # always decoded as JSON: the reference for the canonical one.
    folder = tmp_path_factory.mktemp("canonical")
    repos = [json.dumps({"repo_id": rid, "full_name": "o/r",
                         "created_at": "0001-01-01T00:00:00Z", "primary_language": None,
                         "size_kb": 0, "owner_followers": 0, "forks_total": 0,
                         "stars_total": 0, "watchers_total": 0, "follower_ids": []},
                        ensure_ascii=False)
             for rid in _REPO_IDS]
    outcomes = []
    for name, comma, colon in (("canonical", ",", ":"), ("spaced", ", ", ": ")):
        path = folder / f"{name}.jsonl"
        lines = repos + [_event_line(tokens, comma, colon) for tokens in events]
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        outcomes.append(_outcome(path))
    (canonical, error), (spaced, spaced_error) = outcomes
    assert error == spaced_error
    assert canonical == spaced


# --- rendering ----------------------------------------------------------------

_AWKWARD = ['"},\n    {"', "\ud800", "\udfff", "\x00\x1f\x7f", "é ü 漢", "\n", "}, {"]
_cells = st.one_of(
    st.floats(),
    st.integers(),
    st.none(),
    st.text(),
    st.sampled_from(_AWKWARD),
)


@given(
    st.lists(st.one_of(st.text(max_size=4), st.sampled_from(_AWKWARD)), min_size=1, max_size=4)
    .flatmap(lambda header: st.tuples(
        st.just(header),
        st.lists(st.lists(_cells, max_size=len(header)), max_size=5),
    ))
)
@example((["value"], [[float("nan")], [float("inf")], [float("-inf")], [-0.0]]))
@example((["repo_id", "value"], [['"},\n    {"', 1.5], ["\ud800", "é\x01"]]))
@example((["repo_id"], []))
@example((["%", "k%s"], [["%s", "%"], ["100%", "%%s"]]))
@example((["k", "k"], [[1, 2], [3, 4]]))
@example((["a", "b"], [[1, 2], [3]]))
@example((["v", "w"], [[float("nan"), float("inf")], [float("-inf"), -0.0]]))
@example((["a", "b"], [[[1], 2]]))
@example((["a", "b"], [[0, {"c": [3, 4]}], [[], {}]]))
def test_to_json_matches_indented_dumps(table):
    header, rows = table
    records = [dict(zip(header, row)) for row in rows]
    expected = json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    assert to_json(header, rows) == expected


# Row counts from none to a few thousand, on either side of powers of two.
_ROW_COUNTS = [0, 1, 2_047, 2_048, 2_049, 4_097]
# Cells a UTF-8 data file can hold: no lone surrogates.
_file_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_file_cells = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.integers(),
    st.none(),
    _file_text,
    st.sampled_from(['"},\n    {"', "é ü 漢", "\n", "}, {", "a,b", '"']),
)


@settings(max_examples=40, deadline=None)
@given(
    header=st.lists(_file_text, max_size=3),
    pool=st.lists(st.lists(_file_cells, max_size=3), min_size=1, max_size=4),
    count=st.sampled_from(_ROW_COUNTS),
)
@example(header=[], pool=[[1.5]], count=4_097)
@example(header=["value"], pool=[[float("nan")], [float("inf")], [float("-inf")], [-0.0]],
         count=2_049)
@example(header=["repo_id", "v"], pool=[['"},\n    {"', "é"]], count=2_048)
# Format characters in keys and cells, and the floats json spells its own way.
@example(header=["i", "%", "k%s", "value"],
         pool=[["%s", "100%", float("nan")], ["%%s", "%", float("inf")],
               ["é", "", float("-inf")], ["a", "%d", -0.0]],
         count=4_097)
def test_chunked_table_file_matches_whole_rendering(header, pool, count):
    # Each row leads with its index, so a row written twice, dropped or out
    # of order shows.
    rows = [[i, *pool[i % len(pool)]] for i in range(count)]
    records = [dict(zip(header, row)) for row in rows]
    expected = {"json": json.dumps(records, indent=2, ensure_ascii=False) + "\n",
                "csv": to_csv(header, rows)}
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "table"
        for fmt, text in expected.items():
            write_table(path, header, rows, fmt)
            assert path.read_bytes() == text.encode("utf-8"), fmt


# Repository ids with every character class that CSV quotes, JSON escapes or
# a format string reads.
_score_ids = st.one_of(
    _file_text,
    st.sampled_from(["%s", "100%", "{", "}", "{0}", "{lead}", 'a"b', '"', "a,b", "a\r\nb",
                     "\n", "\r", " lead", "trail ", " é 漢 ", ""]),
)
_score_values = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                     2.225073858507201e-308]),
)


@settings(max_examples=40, deadline=None)
@given(
    repos=st.lists(st.tuples(_score_ids, st.sampled_from(
        [1, 2_047, 2_048, 2_049])), min_size=1, max_size=5),
    pool=st.lists(_score_values, min_size=1, max_size=4),
)
@example(repos=[("%s", 1), ('a"b', 2_047), ("a,b", 2_048),
                ("a\r\nb", 2_049), (" é 漢 ", 1)],
         pool=[float("nan"), float("inf"), float("-inf"), -0.0, 5e-324])
def test_score_file_matches_reference_rendering(repos, pool):
    # Each repository starts at its own place in the pool, so that values
    # swapped between repositories or rows show.
    cards = [
        ScoreCard(repo_id, tuple(pool[(i + t) % len(pool)] for t in range(intervals)),
                  pool[i % len(pool)])
        for i, (repo_id, intervals) in enumerate(repos)
    ]
    table = score_table(cards)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "scores"
        for fmt, render in (("csv", to_csv), ("json", to_json)):
            write_score_table(path, cards, fmt)
            assert path.read_bytes() == render(*table).encode("utf-8"), fmt


# --- corpora -----------------------------------------------------------------

@st.composite
def corpora(draw, max_events=25, spans=(40 * 86_400, 400 * 86_400)):
    """Up to four repositories and their signed events, in shuffled order."""
    n_repos = draw(st.integers(1, 4))
    span = draw(st.sampled_from(spans))
    start = draw(st.integers(FIRST_TS, LAST_TS - span))
    repos = [
        RepoRecord(
            repo_id=f"r{i}é" if i % 2 else f'r"{i}',
            full_name=f"org/r{i}",
            created_at=draw(st.integers(start, start + span // 2)),
            stars_total=i,
        )
        for i in range(n_repos)
    ]
    events = []
    for _ in range(draw(st.integers(0, max_events))):
        repo = draw(st.sampled_from(repos))
        events.append(PopularityEvent(
            repo_id=repo.repo_id,
            kind=draw(st.sampled_from(list(EventKind))),
            occurred_at=draw(st.integers(repo.created_at, start + span)),
            delta=draw(st.integers(-(2**40), 2**40).filter(bool)),
        ))
    random.Random(draw(st.integers(0, 2**16))).shuffle(events)
    return repos, events


def _reference_counts(corpus):
    """Binned matrices by a loop over the row view."""
    shape = (len(corpus.repos), corpus.grid.interval_count)
    counts = {kind: np.zeros(shape, dtype=np.int64) for kind in EventKind}
    rows = {rid: i for i, rid in enumerate(corpus.repo_ids)}
    grid = corpus.grid
    for event in corpus.events:
        t = (event.occurred_at - grid.epoch) // grid.interval_seconds
        assert 0 <= t < grid.interval_count
        counts[event.kind][rows[event.repo_id], t] += event.delta
    return counts[EventKind.FORK], counts[EventKind.STAR]


@settings(max_examples=60, deadline=None)
@given(corpora(spans=(40 * 86_400, LAST_TS - FIRST_TS)), st.randoms(use_true_random=False),
       st.none() | st.integers(FIRST_TS, LAST_TS))
# Two events that differ only in delta; this shuffle swaps their lines.
@example(data=([RepoRecord("r", "org/r", 0)],
               [PopularityEvent("r", EventKind.STAR, 5, d) for d in (2, -1)]),
         rng=random.Random(1), captured_at=None)
# A capture time one second before a creation.
@example(data=([RepoRecord("r", "org/r", 0)], []), rng=random.Random(1), captured_at=-1)
def test_save_load_save_is_byte_identical(tmp_path_factory, data, rng, captured_at):
    # A given capture time in years 0001-9999 either builds a corpus that
    # round-trips, or is refused because it precedes a creation.
    repos, events = data
    try:
        corpus = Corpus.build(repos, events, interval_days=30, captured_at=captured_at)
    except ValueError as exc:
        assert str(exc).startswith("captured_at precedes the creation of ")
        assert captured_at < max(r.created_at for r in repos)
        return
    folder = tmp_path_factory.mktemp("round_trip")
    first = folder / "first.jsonl"
    save_corpus(corpus, first)
    lines = first.read_text(encoding="utf-8").splitlines()
    head, body = lines[: 1 + len(repos)], lines[1 + len(repos):]
    rng.shuffle(body)
    shuffled = folder / "shuffled.jsonl"
    shuffled.write_text("\n".join(head + body) + "\n", encoding="utf-8")
    loaded = load_corpus(shuffled, interval_days=30)
    assert loaded == corpus
    second = folder / "second.jsonl"
    save_corpus(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@settings(max_examples=60, deadline=None)
@given(corpora(max_events=40))
def test_binning_conserves_totals_and_matches_loop(data):
    repos, events = data
    corpus = Corpus.build(repos, events, interval_days=7)
    binned = bin_events(corpus)
    forks, stars = _reference_counts(corpus)
    assert np.array_equal(binned.forks, forks)
    assert np.array_equal(binned.stars, stars)
    for kind, matrix in ((EventKind.FORK, binned.forks), (EventKind.STAR, binned.stars)):
        for row, rid in enumerate(binned.repo_ids):
            total = sum(e.delta for e in events if e.repo_id == rid and e.kind is kind)
            assert int(matrix[row].sum()) == total


@settings(max_examples=40, deadline=None)
@given(corpora(max_events=40), st.data())
def test_regrid_and_subset_equal_build(data, choice):
    repos, events = data
    corpus = Corpus.build(repos, events, interval_days=30)
    for days in DEFAULT_SWEEP_DAYS:
        regridded = corpus.regrid(days)
        rebuilt = Corpus.build(repos, events, days, corpus.captured_at)
        assert regridded == rebuilt
        assert regridded.events == rebuilt.events
        expected = bin_events(rebuilt)
        binned = bin_events(regridded)
        assert np.array_equal(binned.forks, expected.forks)
        assert np.array_equal(binned.stars, expected.stars)
    keep = choice.draw(st.sets(st.sampled_from(corpus.repo_ids), min_size=1))
    subset = corpus.subset(keep)
    assert subset == Corpus.build(
        [r for r in repos if r.repo_id in keep],
        [e for e in events if e.repo_id in keep],
        corpus.grid.interval_days,
        corpus.captured_at,
    )


@st.composite
def sort_inputs(draw):
    """1-50 repositories created at one time, which may lie before 1970, and
    signed events within 3 seconds or 400 days of it, in drawn order; copies
    of some events with other deltas tie on (time, repo, kind)."""
    ids = [f"r{i}" for i in range(draw(st.integers(1, 50)))]
    start = draw(st.integers(FIRST_TS, LAST_TS - 400 * 86_400))
    span = draw(st.sampled_from([3, 400 * 86_400]))
    events = draw(st.lists(st.builds(
        PopularityEvent, st.sampled_from(ids), st.sampled_from(list(EventKind)),
        st.integers(start, start + span), st.integers(-3, 3).filter(bool),
    ), max_size=60))
    if events:
        copies = draw(st.lists(st.sampled_from(events), max_size=10))
        events += [replace(e, delta=draw(st.integers(-3, 3).filter(bool))) for e in copies]
        random.Random(draw(st.integers(0, 2**16))).shuffle(events)
    return [RepoRecord(rid, f"org/{rid}", start) for rid in ids], events


def _sort_case(*events):
    """Two repositories created a day before 1970 and the given events."""
    return ([RepoRecord(rid, f"org/{rid}", -86_400) for rid in ("r0", "r1")],
            [PopularityEvent(rid, EventKind(kind), time, delta)
             for rid, kind, time, delta in events])


@settings(max_examples=200, deadline=None)
@given(sort_inputs(), st.sampled_from([1, 7, 30]))
# The delta decides a tie; row comes before kind; time before row.
@example(_sort_case(("r0", "star", -1, 2), ("r0", "star", -1, -1)), 30)
@example(_sort_case(("r1", "fork", -1, 1), ("r0", "star", -1, 2)), 30)
@example(_sort_case(("r0", "fork", 0, 1), ("r1", "fork", -1, 3)), 30)
def test_event_sorts_equal_tuple_sort(data, days):
    # The corpus's columns are its input's, sorted by (time, row, kind,
    # delta) as tuples, whether pure Python or numpy sorts them; a row is
    # the repository's place in id order.
    repos, events = data
    row_of = {rid: row for row, rid in enumerate(sorted(r.repo_id for r in repos))}
    times = [e.occurred_at for e in events]
    rows = [row_of[e.repo_id] for e in events]
    kinds = [{EventKind.FORK: 0, EventKind.STAR: 1}[e.kind] for e in events]
    deltas = [e.delta for e in events]
    want = sorted(zip(times, rows, kinds, deltas))
    for numpy_from in (model._NUMPY_FROM, 0):
        with mock.patch.object(model, "_NUMPY_FROM", numpy_from):
            corpus = Corpus.build(repos, events, days)
        assert [(t, r, k, d) for r, k, t, d in corpus.event_rows()] == want


@settings(max_examples=100, deadline=None)
@given(corpora(max_events=30), st.sampled_from([1, 7, 30]), st.data())
def test_numpy_kernels_equal_pure_python(data, days, choice):
    # A corpus at least ``_NUMPY_FROM`` in size is sorted and binned by
    # numpy, a smaller one in pure Python: both must give the same
    # columns, counts, weights, scores and labels, bit for bit. Copies of
    # some events with other deltas tie on (time, repo, kind), so the
    # delta decides their order.
    repos, events = data
    if events:
        copies = choice.draw(st.lists(st.sampled_from(events), max_size=4))
        events = events + [replace(e, delta=choice.draw(st.integers(-3, 3).filter(bool)))
                           for e in copies]
    pure = Corpus.build(repos, events, days)
    reference = bin_events(pure)
    with mock.patch.object(model, "_NUMPY_FROM", 0):
        vector = Corpus.build(repos, events, days)
        binned = bin_events(vector)
    assert vector == pure and vector.events == pure.events
    assert binned.vectorized and not reference.vectorized
    for kind in EventKind:
        assert np.array_equal(binned.matrix(kind), reference.matrix(kind))
        assert binned.totals(kind) == reference.totals(kind)
        assert binned.rows(kind) == reference.rows(kind)
    weights = compute_weights(binned)
    assert weights == compute_weights(reference)
    for table in (weights, unit_weights(binned.interval_count)):
        for got, want in zip(score_all(binned, table), score_all(reference, table), strict=True):
            assert got.repo_id == want.repo_id
            assert all(map(_same_float, got.interval_scores, want.interval_scores))
            assert _same_float(got.overall, want.overall)
    for rid in binned.repo_ids:
        for indicator in (Indicator.FORKS, Indicator.STARS):
            assert (classify_growth(binned, rid, indicator)
                    == classify_growth(reference, rid, indicator))


# --- weights -----------------------------------------------------------------

@st.composite
def binned_counts(draw):
    """Signed fork and star cells, small enough that the weight sums stay
    well inside float precision."""
    n_repos, n_intervals = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    cells = st.lists(st.integers(-20, 20), min_size=n_repos * n_intervals,
                     max_size=n_repos * n_intervals)
    forks, stars = (np.array(draw(cells), dtype=np.int64).reshape(n_repos, n_intervals)
                    for _ in range(2))
    return BinnedCounts(tuple(f"r{i}" for i in range(n_repos)), n_intervals, forks, stars)


@settings(max_examples=200, deadline=None)
@given(binned_counts())
def test_weights_are_shares_of_the_net_total(binned):
    table = compute_weights(binned)
    for matrix, weights in ((binned.forks, table.fork_weights),
                            (binned.stars, table.star_weights)):
        per_interval = [int(c) for c in matrix.sum(axis=0)]
        total = sum(per_interval)
        assert len(weights) == binned.interval_count
        if total > 0:
            assert list(weights) == [c / total for c in per_interval]
            assert abs(math.fsum(weights) - 1.0) <= 1e-12
        else:
            assert weights == (0.0,) * binned.interval_count


# --- exact scores --------------------------------------------------------------

_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308)


@st.composite
def float_rows(draw, count: int):
    """``count`` rows of one length in 1-1000: finite floats of any
    magnitude, or of at most 1 (so that no score overflows), with a drawn
    share of zeros of both signs, subnormals and extremes."""
    n = draw(st.integers(1, 1000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    special = draw(st.sampled_from([0.0, 0.01, 0.2]))
    top = draw(st.sampled_from([0, 308]))

    def value() -> float:
        if rng.random() < special:
            return rng.choice(_SPECIAL_FLOATS)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, top)

    return [[value() for _ in range(n)] for _ in range(count)]


def _same_float(got: float, want: float) -> bool:
    """Bit-identical, so ``0.0`` and ``-0.0`` differ."""
    return struct.pack("<d", got) == struct.pack("<d", want)


def _rounded(exact: Fraction) -> float | type[OverflowError]:
    """``exact`` rounded once to a float, or ``OverflowError`` beyond range."""
    try:
        return float(exact)
    except OverflowError:
        return OverflowError


def _scored(score, *args):
    """What ``score(*args)`` returns, or ``OverflowError`` if it raises it."""
    try:
        return score(*args)
    except OverflowError:
        return OverflowError


@settings(max_examples=60, deadline=None)
@given(float_rows(count=2), st.integers(0, 2**32))
def test_scores_are_exact_values_rounded_once(weight_rows, seed):
    # One repository with a nonzero fork and star delta in each of n daily
    # intervals, scored under arbitrary finite weights on either binning
    # kernel: each cell and overall score is the Fraction value rounded
    # once, and a score that rounds beyond float range raises OverflowError.
    n = len(weight_rows[0])
    rng = random.Random(seed)
    cells = [rng.randint(-(2**40), 2**40) or 1 for _ in range(2 * n)]
    forks, stars = cells[:n], cells[n:]
    events = [PopularityEvent("r", kind, t * 86_400, delta)
              for kind, row in ((EventKind.FORK, forks), (EventKind.STAR, stars))
              for t, delta in enumerate(row)]
    table = WeightTable(*map(tuple, weight_rows))
    exact = [f * Fraction(wf) + s * Fraction(ws)
             for f, s, wf, ws in zip(forks, stars, *weight_rows)]
    want_cells = list(map(_rounded, exact))
    want_overall = _rounded(sum(exact))
    card_fits = OverflowError not in [*want_cells, want_overall]
    some_t = sorted({0, n - 1, rng.randrange(n)})
    for numpy_from in (model._NUMPY_FROM, 0):
        with mock.patch.object(model, "_NUMPY_FROM", numpy_from):
            corpus = Corpus.build([RepoRecord("r", "o/r", 0)], events, interval_days=1)
            binned = bin_events(corpus)
            value = _scored(lambda: indicator_values(corpus, Indicator.WTPS, weights=table)["r"])
        assert binned.vectorized is (numpy_from == 0)
        if want_overall is OverflowError:
            assert value is OverflowError
        else:
            assert _same_float(value, want_overall)
        cards = _scored(score_all, binned, table)
        card = _scored(wtps_overall, binned, table, "r")
        picked = [_scored(wtps_interval, binned, table, "r", t) for t in some_t]
        if not card_fits:
            assert cards is card is OverflowError
            assert picked == [OverflowError] * len(some_t)
            continue
        assert cards == [card]
        assert all(map(_same_float, card.interval_scores, want_cells))
        assert _same_float(card.overall, want_overall)
        assert all(_same_float(got, want_cells[t]) for got, t in zip(picked, some_t))


# --- deletion experiment -----------------------------------------------------

@st.composite
def follower_graphs(draw):
    """Small graphs over one id alphabet, so a repo and a follower may share
    text, with isolated repos and followers, repo twins (a repo copying
    another's follower set) and follower twins."""
    ids = st.sampled_from(["a", "b", "c", "d", "e", "f"])
    repos = draw(st.sets(ids, min_size=1))
    followers = draw(st.sets(ids))
    pairs = sorted((r, f) for r in repos for f in followers)
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    for k, source in enumerate(draw(st.lists(st.sampled_from(sorted(repos)), max_size=3))):
        twin = f"{source}{k}"
        repos.add(twin)
        edges |= {(twin, f) for r, f in list(edges) if r == source}
    if followers:
        for k, source in enumerate(draw(st.lists(st.sampled_from(sorted(followers)),
                                                 max_size=3))):
            twin = f"{source}{k}"
            followers.add(twin)
            edges |= {(r, twin) for r, f in list(edges) if f == source}
    scores = {r: draw(st.integers(0, 3)) * 1.0 for r in sorted(repos)}
    return FollowerGraph(frozenset(repos), frozenset(followers), frozenset(edges)), scores


@settings(max_examples=200, deadline=None)
@given(follower_graphs(), st.sampled_from(CoefficientKind))
def test_deletion_series_equals_recompute_after_each_removal(data, kind):
    graph, scores = data
    series = deletion_experiment(graph, scores, len(graph.repo_nodes), kind)
    assert list(series.removed) == sorted(scores, key=lambda r: (-scores[r], r))
    latapy = kind is CoefficientKind.BIPARTITE_LATAPY
    current = graph
    for k, value in enumerate(series.values):
        if k:
            current = current.remove_repo(series.removed[k - 1])
        assert value == (fsum_overlap_reference(current) if latapy else 0.0)


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 50)), max_size=30))
def test_exact_int_sum_equals_fsum(terms):
    total = sum(m * _exact(x) for x, m in terms)
    assert total / (1 << 1074) == math.fsum(x for x, m in terms for _ in range(m))


# --- the CLI boundary ----------------------------------------------------------

_COMMANDS = (
    ("ingest",), ("score",), ("rank", "--indicator", "wtps"), ("correlate",), ("sweep",),
    ("classify", "--indicator", "stars"), ("graph-build",),
    ("graph-deletion", "--measure", "stars"), ("summarize",),
)
_TYPED_EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_API, EXIT_DOMAIN, EXIT_IO}
_SWAPPED_VALUES = (None, True, 0, -1, 2.5, "x", "", [], ["x"], {}, 10**30,
                   "2018-01-01T00:00:00Z")


@st.composite
def mutated_samples(draw):
    """A shipped sample's bytes after one to three mutations of its lines."""
    lines = draw(st.sampled_from([COMMUNITY_SAMPLE, FOLLOWER_SAMPLE])).read_bytes().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        how = draw(st.sampled_from(["truncate", "flip", "swap", "duplicate", "shuffle"]))
        if how == "truncate":
            lines[i] = line[:draw(st.integers(0, len(line)))]
        elif how == "flip" and line:
            at = draw(st.integers(0, len(line) - 1))
            lines[i] = line[:at] + bytes([line[at] ^ draw(st.integers(1, 255))]) + line[at + 1:]
        elif how == "swap":
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and obj:
                obj[draw(st.sampled_from(sorted(obj)))] = draw(st.sampled_from(_SWAPPED_VALUES))
                lines[i] = json.dumps(obj, separators=(",", ":")).encode()
        elif how == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif how == "shuffle":
            draw(st.randoms(use_true_random=False)).shuffle(lines)
    return b"\n".join(lines) + b"\n"


@settings(max_examples=25, deadline=None)
@given(mutated_samples())
def test_mutated_samples_exit_typed_and_fail_without_output(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("fuzz")
    dataset = folder / "input.jsonl"
    dataset.write_bytes(data)
    for command in _COMMANDS:
        outputs = folder / command[0]
        outputs.mkdir()
        code = main([command[0], "--input", str(dataset),
                     "--output", str(outputs / "out"), *command[1:]])
        assert code in _TYPED_EXITS
        expected = ["out", "out.meta.json"] if code == EXIT_OK else []
        assert sorted(p.name for p in outputs.iterdir()) == expected
