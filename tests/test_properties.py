"""Hypothesis properties of the columnar event store and its file format.

Each property has a plain reference beside it: ``parse_timestamp`` for the
event times ``load_corpus`` reads, the same lines spelled with spaces (so
decoded as JSON) for canonical event lines, ``json.dumps(indent=2)`` for
``to_json`` and for the table writers (with the whole-table
``to_csv`` for their CSV), a loop over ``PopularityEvent`` rows for binning,
``Corpus.build`` for regrid and subset, exact integer shares for the
weights, the former fsum kernel (``synth.fsum_overlap_reference``) on chained
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
from dataclasses import replace
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
)
from wtps.scoring import (  # noqa: E402
    Indicator,
    ScoreCard,
    WeightTable,
    _row_sum,
    classify_growth,
    indicator_values,
    score_all,
    unit_weights,
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
    st.sampled_from(["%s", "100%", 'a"b', '"', "a,b", "a\r\nb", "\n", "\r", " lead",
                     "trail ", " é 漢 ", ""]),
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


@settings(max_examples=100, deadline=None)
@given(corpora(max_events=30), st.sampled_from([1, 7, 30]), st.data())
def test_numpy_kernels_equal_pure_python(data, days, choice):
    # A corpus at least ``_NUMPY_FROM`` in size is sorted, binned and scored
    # by numpy, a smaller one in pure Python: both must give the same
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


# --- row sums -----------------------------------------------------------------

_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, math.inf, -math.inf, math.nan)


@st.composite
def float_rows(draw, count: int):
    """``count`` rows of one length in 1-1000: floats of any magnitude, with
    a drawn share of zeros of both signs, subnormals, extremes, inf and nan."""
    n = draw(st.integers(1, 1000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    special = draw(st.sampled_from([0.0, 0.01, 0.2]))

    def value() -> float:
        if rng.random() < special:
            return rng.choice(_SPECIAL_FLOATS)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)

    return [[value() for _ in range(n)] for _ in range(count)]


def _same_float(got: float, want: float) -> bool:
    """Bit-identical, except that any NaN matches any NaN: which operand's
    NaN an addition returns is up to the compiler, and every NaN is written
    as the same text."""
    if math.isnan(want):
        return math.isnan(got)
    return struct.pack("<d", got) == struct.pack("<d", want)


@settings(max_examples=200, deadline=None)
@given(float_rows(count=3))
@example([[-0.0] * 9, [-0.0, 5e-324, -0.0, 0.0, -5e-324, -0.0, -0.0, -0.0, -0.0], [-0.0] * 9])
def test_row_sum_is_numpy_add_reduce(rows):
    with np.errstate(all="ignore"):
        want = np.add.reduce(np.array(rows, dtype=np.float64), axis=1).tolist()
    for row, expected in zip(rows, want):
        assert _same_float(_row_sum(row), expected)
        with np.errstate(all="ignore"):
            alone = float(np.add.reduce(np.array(row)))
        assert _same_float(_row_sum(row), alone)


@settings(max_examples=60, deadline=None)
@given(float_rows(count=2), st.integers(0, 2**32))
def test_scores_are_numpy_row_sums_of_the_score_matrix(weight_rows, seed):
    # One repository with a nonzero fork and star delta in each of n daily
    # intervals, scored under arbitrary float weights.
    n = len(weight_rows[0])
    rng = random.Random(seed)
    cells = [rng.randint(-(2**40), 2**40) or 1 for _ in range(2 * n)]
    weights = weight_rows[0] + weight_rows[1]
    events = [PopularityEvent("r", kind, t * 86_400, delta)
              for kind, row in ((EventKind.FORK, cells[:n]), (EventKind.STAR, cells[n:]))
              for t, delta in enumerate(row)]
    corpus = Corpus.build([RepoRecord("r", "o/r", 0)], events, interval_days=1)
    binned = bin_events(corpus)
    table = WeightTable(tuple(weights[:n]), tuple(weights[n:]))
    with np.errstate(all="ignore"):
        matrix = binned.forks * np.array(weights[:n]) + binned.stars * np.array(weights[n:])
        overall = float(np.add.reduce(matrix, axis=1)[0])
    card, = score_all(binned, table)
    assert all(map(_same_float, card.interval_scores, matrix[0].tolist()))
    assert _same_float(card.overall, overall)
    value = indicator_values(corpus, Indicator.WTPS, weights=table)["r"]
    assert _same_float(value, card.overall)


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
