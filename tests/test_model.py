import random
import re
from dataclasses import replace

import numpy as np
import pytest

from wtps import (
    DeltaOverflow,
    DuplicateRepoId,
    EmptyEventSet,
    EventBeforeCreation,
    EventOutsideGrid,
    UnknownRepo,
    bin_events,
    load_corpus,
)
from wtps import model
from wtps.dataset import format_timestamp, save_corpus
from wtps.model import (
    Corpus,
    EventKind,
    PopularityEvent,
    RepoRecord,
    TimeGrid,
    grid_for_times,
)
from synth import BASE_TS, DAY, make_corpus


def _repo(rid="R1", created=BASE_TS, **kwargs):
    defaults = dict(full_name=f"org/{rid}", created_at=created)
    defaults.update(kwargs)
    return RepoRecord(repo_id=rid, **defaults)


def _event(rid="R1", kind=EventKind.FORK, at=BASE_TS, delta=1):
    return PopularityEvent(repo_id=rid, kind=kind, occurred_at=at, delta=delta)


class TestGridConstruction:
    def test_single_event_single_interval(self):
        grid = grid_for_times([BASE_TS + 5 * 3600], interval_days=30)
        assert grid.interval_count == 1
        assert grid.epoch == BASE_TS

    def test_59_day_span_two_intervals(self):
        times = [BASE_TS, BASE_TS + 59 * DAY]
        assert grid_for_times(times, 30).interval_count == 2

    def test_exact_60_day_span_three_intervals(self):
        # Half-open upper bound: an event exactly at epoch + 60d needs a
        # third window. Oracle: grow the cover one window at a time.
        times = [BASE_TS, BASE_TS + 60 * DAY]
        grid = grid_for_times(times, 30)

        def covering_windows(epoch, latest, width_seconds):
            count = 1
            while not latest < epoch + count * width_seconds:
                count += 1
            return count

        assert grid.interval_count == covering_windows(BASE_TS, BASE_TS + 60 * DAY, 30 * DAY)
        assert grid.interval_count == 3

    def test_epoch_truncates_to_utc_midnight(self):
        noon = BASE_TS + 3 * DAY + 12 * 3600
        grid = grid_for_times([noon], interval_days=7)
        assert grid.epoch == BASE_TS + 3 * DAY

    def test_grid_deterministic_under_ordering(self):
        rng = random.Random(7)
        times = [BASE_TS + rng.randrange(200 * DAY) for _ in range(50)]
        shuffled = times[:]
        rng.shuffle(shuffled)
        assert grid_for_times(times, 30) == grid_for_times(shuffled, 30)

    def test_empty_events_rejected(self):
        with pytest.raises(EmptyEventSet):
            grid_for_times([], interval_days=30)

    @pytest.mark.parametrize("days", [0, -3])
    def test_nonpositive_interval_rejected(self, days):
        with pytest.raises(ValueError):
            grid_for_times([BASE_TS], days)

    def test_grid_field_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(epoch=0, interval_days=30, interval_count=0)


class TestBinning:
    def _two_event_corpus(self, second_offset_days):
        events = [
            _event(at=BASE_TS),
            _event(at=BASE_TS + second_offset_days * DAY),
        ]
        return Corpus.build([_repo()], events, interval_days=30)

    def test_boundary_events_share_first_interval(self):
        corpus = self._two_event_corpus(29)
        binned = bin_events(corpus)
        assert binned.interval_count == 1
        assert binned.deltas("R1", EventKind.FORK).tolist() == [2]

    def test_event_at_30_days_opens_second_interval(self):
        corpus = self._two_event_corpus(30)
        binned = bin_events(corpus)
        assert binned.deltas("R1", EventKind.FORK).tolist() == [1, 1]

    def test_community_sample_fork_rows(self, community_corpus):
        binned = bin_events(community_corpus)
        assert binned.deltas("R1", EventKind.FORK).tolist() == [15, 20, 3, 9, 7]
        assert binned.deltas("R3", EventKind.STAR).tolist() == [1, 3, 4, 22, 20]

    @pytest.mark.parametrize("seed", range(8))
    def test_binning_conserves_totals(self, seed):
        rng = random.Random(seed)
        corpus = make_corpus(
            rng,
            n_repos=rng.randint(1, 10),
            n_intervals=rng.randint(1, 6),
            unit_events=bool(seed % 2),
            allow_negative=seed % 3 == 0,
        )
        binned = bin_events(corpus)
        raw = {}
        for event in corpus.events:
            key = (event.repo_id, event.kind)
            raw[key] = raw.get(key, 0) + event.delta
        for (rid, kind), total in raw.items():
            assert binned.deltas(rid, kind).sum() == total
        grid = corpus.grid
        for event in corpus.events:
            t = (event.occurred_at - grid.epoch) // grid.interval_seconds
            assert 0 <= t < grid.interval_count

    def test_negative_deltas_pass_through(self):
        events = [
            _event(at=BASE_TS, delta=5),
            _event(at=BASE_TS + 3600, delta=-2),
        ]
        corpus = Corpus.build([_repo()], events, interval_days=30)
        binned = bin_events(corpus)
        assert binned.deltas("R1", EventKind.FORK).tolist() == [3]

    def test_short_grid_rejected_at_construction(self):
        grid = TimeGrid(epoch=BASE_TS, interval_days=30, interval_count=1)
        events = [_event(at=BASE_TS + 45 * DAY)]
        with pytest.raises(EventOutsideGrid):
            Corpus(repos=(_repo(),), events=tuple(events), grid=grid)

    def test_matrices_are_read_only(self, community_corpus):
        binned = bin_events(community_corpus)
        with pytest.raises(ValueError):
            binned.forks[0, 0] = 99

    def test_unknown_repo_lookup(self, community_corpus):
        binned = bin_events(community_corpus)
        with pytest.raises(UnknownRepo):
            binned.deltas("nope", EventKind.FORK)


class TestCorpusValidation:
    def test_duplicate_repo_ids_rejected(self):
        with pytest.raises(DuplicateRepoId):
            Corpus.build([_repo(), _repo()], [_event()], interval_days=30)

    def test_event_for_unknown_repo_rejected(self):
        with pytest.raises(UnknownRepo):
            Corpus.build([_repo()], [_event(rid="ghost")], interval_days=30)

    def test_event_before_creation_rejected(self):
        repo = _repo(created=BASE_TS + DAY)
        with pytest.raises(EventBeforeCreation):
            Corpus.build([repo], [_event(at=BASE_TS)], interval_days=30)

    def test_event_at_creation_instant_allowed(self):
        corpus = Corpus.build([_repo()], [_event(at=BASE_TS)], interval_days=30)
        assert len(corpus.events) == 1

    def test_events_canonically_ordered(self):
        events = [
            _event(rid="R2", kind=EventKind.STAR, at=BASE_TS + 10),
            _event(rid="R1", kind=EventKind.STAR, at=BASE_TS + 10),
            _event(rid="R1", kind=EventKind.FORK, at=BASE_TS + 10),
            _event(rid="R1", kind=EventKind.FORK, at=BASE_TS),
        ]
        corpus = Corpus.build([_repo("R1"), _repo("R2")], events, interval_days=30)
        keys = [e.sort_key() for e in corpus.events]
        assert keys == sorted(keys)
        assert corpus.events[0].occurred_at == BASE_TS

    def test_captured_at_defaults_to_latest_event(self):
        corpus = Corpus.build(
            [_repo()],
            [_event(at=BASE_TS), _event(at=BASE_TS + 11 * DAY)],
            interval_days=30,
        )
        assert corpus.captured_at == BASE_TS + 11 * DAY

    def test_captured_at_without_events_uses_creation(self):
        corpus = Corpus.build([_repo(created=BASE_TS + 2 * DAY)], [], interval_days=30)
        assert corpus.captured_at == BASE_TS + 2 * DAY
        assert corpus.grid.interval_count == 1

    def test_captured_at_is_never_before_a_creation(self):
        corpus = Corpus.build(
            [_repo("R1"), _repo("R2", created=BASE_TS + 40 * DAY)],
            [_event(at=BASE_TS + 11 * DAY)],
            interval_days=30,
        )
        assert corpus.captured_at == BASE_TS + 40 * DAY

    def test_regrid_changes_width_only(self, community_corpus):
        regridded = community_corpus.regrid(7)
        assert regridded.grid.interval_days == 7
        assert regridded.repos == community_corpus.repos
        assert regridded.events == community_corpus.events
        assert regridded.captured_at == community_corpus.captured_at

    def test_equality_is_by_value(self):
        def build(captured_at=BASE_TS + DAY):
            return Corpus.build([_repo()], [_event()], interval_days=30, captured_at=captured_at)

        assert build() == build()
        assert build() != build(BASE_TS + 2 * DAY)
        assert build().__eq__(object()) is NotImplemented

    def test_cached_views_do_not_affect_equality(self, community_corpus):
        other = community_corpus.regrid(community_corpus.grid.interval_days)
        assert community_corpus.events and community_corpus.event_time.size
        assert community_corpus == other and other == community_corpus

    def test_corpus_is_unhashable(self, community_corpus):
        with pytest.raises(TypeError):
            hash(community_corpus)

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            PopularityEvent("R1", EventKind.FORK, BASE_TS, 0)

    def test_delta_magnitudes_must_fit_int64(self):
        # The bound is on summed magnitudes, wherever the events fall, so
        # cancelling signs and separate cells do not get round it.
        fits = [_event(delta=2**62), _event(kind=EventKind.STAR, delta=2**62 - 1)]
        corpus = Corpus.build([_repo()], fits, interval_days=30)
        assert int(bin_events(corpus).forks.sum()) == 2**62
        for deltas in ([2**62, 2**62], [2**62, -(2**62)], [2**63], [-(2**63)]):
            events = [_event(at=BASE_TS + i * 40 * DAY, delta=d) for i, d in enumerate(deltas)]
            with pytest.raises(DeltaOverflow):
                Corpus.build([_repo()], events, interval_days=30)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            _repo(stars_total=-1)

    @pytest.mark.parametrize("value", [2**63, 10**5000], ids=["2e63", "5001-digits"])
    def test_counts_past_int64_rejected_without_the_value(self, value):
        # A 5000-digit int cannot be formatted, so the message names the bound.
        with pytest.raises(ValueError, match=r"^stars_total must be in \[0, 2\*\*63\)$"):
            _repo(stars_total=value)
        record = _repo(stars_total=2**63 - 1)
        with pytest.raises(ValueError, match="stars_total"):
            replace(record, stars_total=value)

    def test_empty_repo_id_rejected(self):
        with pytest.raises(ValueError):
            RepoRecord(repo_id="", full_name="x", created_at=BASE_TS)

    def test_binned_shape_mismatch_rejected(self):
        from wtps.model import BinnedCounts

        with pytest.raises(ValueError):
            BinnedCounts(
                repo_ids=("R1",),
                interval_count=3,
                forks=np.zeros((1, 2), dtype=np.int64),
                stars=np.zeros((1, 3), dtype=np.int64),
            )


FIRST_SECOND = -62_135_596_800  # 0001-01-01T00:00:00Z
LAST_SECOND = 253_402_300_799  # 9999-12-31T23:59:59Z


class TestTimeBounds:
    # Record times lie in UTC years 0001-9999, the range a saved file can
    # spell with a four-digit year and the columns and views hold as int64.
    @pytest.mark.parametrize("value", [FIRST_SECOND - 1, LAST_SECOND + 1, 10**12, 2**63,
                                       -(2**63) - 1])
    def test_times_outside_the_years_rejected(self, value):
        with pytest.raises(ValueError, match="^created_at must lie in UTC years 0001-9999$"):
            _repo(created=value)
        with pytest.raises(ValueError, match="^occurred_at must lie in UTC years 0001-9999$"):
            _event(at=value)
        with pytest.raises(ValueError, match="^captured_at must lie in UTC years 0001-9999$"):
            Corpus.build([_repo()], [_event()], interval_days=30, captured_at=value)
        with pytest.raises(ValueError, match="^timestamp must lie in UTC years 0001-9999$"):
            format_timestamp(value)

    def test_both_ends_round_trip(self, tmp_path):
        repo = _repo(created=FIRST_SECOND)
        events = [_event(at=FIRST_SECOND), _event(kind=EventKind.STAR, at=LAST_SECOND)]
        corpus = Corpus.build([repo], events, interval_days=30, captured_at=LAST_SECOND)
        assert format_timestamp(FIRST_SECOND) == "0001-01-01T00:00:00Z"
        assert format_timestamp(LAST_SECOND) == "9999-12-31T23:59:59Z"
        path = tmp_path / "ends.jsonl"
        save_corpus(corpus, path)
        text = path.read_text(encoding="utf-8")
        assert '"occurred_at":"0001-01-01T00:00:00Z"' in text
        assert '"occurred_at":"9999-12-31T23:59:59Z"' in text
        assert load_corpus(path) == corpus
        assert corpus.event_time.tolist() == [FIRST_SECOND, LAST_SECOND]

    def test_formatter_matches_numpy(self):
        rng = random.Random(5)
        times = [FIRST_SECOND, LAST_SECOND, 0, -1, *(rng.randint(FIRST_SECOND, LAST_SECOND)
                                                    for _ in range(500))]
        expected = [f"{np.datetime64(t, 's')}Z" for t in times]
        assert [format_timestamp(t) for t in times] == expected


# Each integer field of a record, with a builder that sets only that field.
_INTEGER_FIELDS = [
    ("created_at", lambda v: _repo(created=v)),
    *((name, lambda v, name=name: _repo(**{name: v})) for name in model.COUNT_FIELDS),
    ("occurred_at", lambda v: _event(at=v)),
    ("delta", lambda v: _event(delta=v)),
    ("epoch", lambda v: TimeGrid(v, 30, 1)),
    ("interval_days", lambda v: TimeGrid(BASE_TS, v, 1)),
    ("interval_count", lambda v: TimeGrid(BASE_TS, 30, v)),
    ("captured_at", lambda v: Corpus.build([_repo()], [_event()], captured_at=v)),
]


class TestFieldTypes:
    # Each record checks the types of its own fields, so every record the
    # library builds saves to a file that loads back.
    @pytest.mark.parametrize("name,build,value", [
        pytest.param(name, build, value, id=f"{name}-{value!r}")
        for name, build in _INTEGER_FIELDS
        for value in (True, 1.5, "3", None)
        if (name, value) != ("captured_at", None)  # None asks for the derived capture time
    ])
    def test_integer_fields_refuse_other_values(self, name, build, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            build(value)

    @pytest.mark.parametrize("build,message", [
        (lambda: _repo(primary_language=False), "primary_language must be a string or null"),
        (lambda: _repo(primary_language=0), "primary_language must be a string or null"),
        (lambda: _repo(primary_language=[]), "primary_language must be a string or null"),
        (lambda: _repo(follower_ids=("f", 5)), "follower_ids must be a list of strings"),
        (lambda: _repo(follower_ids="abc"), "follower_ids must be a list of strings"),
        (lambda: _repo(follower_ids=5), "follower_ids must be a list of strings"),
        (lambda: _repo(full_name=None), "full_name must be a string, got None"),
        (lambda: _repo(rid=7), "repo_id must be a string, got 7"),
        (lambda: _event(rid=7), "repo_id must be a string, got 7"),
        (lambda: _event(kind="star"), "kind must be an EventKind, got 'star'"),
    ], ids=["language-false", "language-0", "language-list", "follower-id-int",
            "follower-ids-string", "follower-ids-int", "full-name-none", "repo-id-int", "event-repo-id-int", "kind-string"])
    def test_other_fields_refuse_wrong_types(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("build", [
        lambda v: grid_for_times([BASE_TS], v),
        lambda v: Corpus.build([_repo()], [_event()], interval_days=v),
        lambda v: Corpus.build([_repo()], [_event()]).regrid(v),
    ], ids=["grid_for_times", "build", "regrid"])
    @pytest.mark.parametrize("value", [True, 1.5, "3", None])
    def test_interval_width_is_checked_before_it_is_compared(self, build, value):
        # A width is a type fault, not a bare TypeError from ``<=``.
        message = f"^interval_days must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            build(value)

    def test_numpy_integers_are_stored_as_int_and_round_trip(self, tmp_path):
        i64 = np.int64
        repo = _repo(created=i64(BASE_TS), **{name: i64(3) for name in model.COUNT_FIELDS})
        events = [_event(at=i64(BASE_TS + DAY), delta=i64(2)),
                  _event(kind=EventKind.STAR, at=i64(BASE_TS + 9 * DAY), delta=i64(-1))]
        corpus = Corpus.build([repo], events, interval_days=i64(7),
                              captured_at=i64(BASE_TS + 10 * DAY))
        values = [repo.created_at, *(getattr(repo, name) for name in model.COUNT_FIELDS),
                  *(e.occurred_at for e in events), *(e.delta for e in events),
                  corpus.captured_at, corpus.grid.epoch, corpus.grid.interval_days]
        assert {type(v) for v in values} == {int}
        path = tmp_path / "numpy.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path, interval_days=7) == corpus


class TestNdarrayViews:
    # The documented ndarray attributes are built on first access from the
    # pure-Python columns and cells: numpy dtypes, shapes, read-only, kept.
    def test_corpus_columns(self, community_corpus):
        n = len(community_corpus.events)
        for name, dtype in (("event_repo", np.intp), ("event_kind", np.int8),
                            ("event_time", np.int64), ("event_delta", np.int64)):
            column = getattr(community_corpus, name)
            assert isinstance(column, np.ndarray)
            assert column.dtype == dtype and column.shape == (n,)
            # numpy's own type, not an equal one its kernels cast from.
            assert column.dtype.char == np.dtype(dtype).char
            assert getattr(community_corpus, name) is column
            with pytest.raises(ValueError):
                column[0] = 0
        events, ids = community_corpus.events, community_corpus.repo_ids
        assert community_corpus.event_repo.tolist() == [ids.index(e.repo_id) for e in events]
        assert community_corpus.event_kind.tolist() == [
            0 if e.kind is EventKind.FORK else 1 for e in events
        ]
        assert community_corpus.event_time.tolist() == [e.occurred_at for e in events]
        assert community_corpus.event_delta.tolist() == [e.delta for e in events]

    def test_empty_corpus_columns(self):
        corpus = Corpus.build([_repo()], [], interval_days=30)
        assert corpus.event_time.shape == (0,) and corpus.event_time.dtype == np.int64
        assert corpus.event_repo.dtype == np.intp

    def test_binned_matrices(self, community_corpus):
        binned = bin_events(community_corpus)
        shape = (len(binned.repo_ids), binned.interval_count)
        for kind, matrix in ((EventKind.FORK, binned.forks), (EventKind.STAR, binned.stars)):
            assert matrix.dtype == np.int64 and matrix.shape == shape
            assert binned.matrix(kind) is matrix
            totals = binned.interval_totals(kind)
            assert totals.dtype == np.int64 and totals.shape == (binned.interval_count,)
            assert totals.tolist() == matrix.sum(axis=0).tolist()
            assert binned.interval_totals(kind) is totals
            row = binned.deltas("R1", kind)
            assert row.tolist() == matrix[0].tolist()
            for array_view in (matrix, totals, row):
                with pytest.raises(ValueError):
                    array_view[0] = 0

    def test_given_matrices_are_kept(self):
        from wtps.model import BinnedCounts

        forks = np.array([[1, -2, 3]], dtype=np.int64)
        stars = np.zeros((1, 3), dtype=np.int64)
        binned = BinnedCounts(("R1",), 3, forks, stars)
        assert binned.forks is forks and not forks.flags.writeable
        assert binned.interval_totals(EventKind.FORK).tolist() == [1, -2, 3]


class TestNumpyFromSize:
    # Three repositories with events over 20 days: a weekly grid over that
    # span has 3 intervals, so 2 * 3 * 3 = 18 cells, plus 21 events.
    SIZE = 21 + 18

    def _corpus(self):
        repos = [_repo(f"R{i}") for i in range(3)]
        events = [_event(rid=f"R{i % 3}", at=BASE_TS + i * DAY) for i in range(21)]
        return Corpus.build(repos, events, interval_days=30)

    @pytest.mark.parametrize("threshold, vectorized", [(SIZE, True), (SIZE + 1, False)])
    def test_one_path_at_every_width(self, monkeypatch, threshold, vectorized):
        monkeypatch.setattr(model, "_NUMPY_FROM", threshold)
        corpus = self._corpus()
        for days in (30, 14, 7, 1):
            assert bin_events(corpus.regrid(days)).vectorized is vectorized
