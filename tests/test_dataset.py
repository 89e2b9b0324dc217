import json
import random

import pytest

from wtps import DuplicateRepoId, EventBeforeCreation, ParseError, load_corpus
from wtps.dataset import (
    DatasetSource,
    format_timestamp,
    parse_timestamp,
    save_corpus,
)
from wtps.model import COUNT_FIELDS, Corpus, EventKind, PopularityEvent, RepoRecord
from synth import BASE_TS, DAY, make_corpus


def _repo_line(rid="R1", created="2018-01-01T00:00:00Z", **overrides):
    obj = {
        "repo_id": rid,
        "full_name": f"org/{rid}",
        "created_at": created,
        "primary_language": None,
        "size_kb": 10,
        "owner_followers": 2,
        "forks_total": 0,
        "stars_total": 0,
        "watchers_total": 0,
        "follower_ids": [],
    }
    obj.update(overrides)
    return json.dumps(obj)


def _event_line(rid="R1", kind="fork", at="2018-01-02T00:00:00Z", **overrides):
    obj = {"repo_id": rid, "kind": kind, "occurred_at": at, "delta": 1}
    obj.update(overrides)
    return json.dumps(obj)


def _write(tmp_path, *lines):
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTimestamps:
    @pytest.mark.parametrize(
        "text",
        ["2018-01-01T00:00:00Z", "2018-01-01T00:00:00+00:00", "2018-01-01T00:00:00"],
    )
    def test_utc_spellings_agree(self, text):
        assert parse_timestamp(text) == BASE_TS

    def test_offset_converted_to_utc(self):
        assert parse_timestamp("2018-01-01T05:00:00+05:00") == BASE_TS

    def test_round_trip(self):
        assert parse_timestamp(format_timestamp(BASE_TS + 12345)) == BASE_TS + 12345

    @pytest.mark.parametrize("text,floor", [
        ("9999-12-31T23:59:59.999999Z", "9999-12-31T23:59:59Z"),
        ("1969-12-31T23:59:59.5Z", "1969-12-31T23:59:59Z"),
        ("2018-01-01T00:00:00.999999Z", "2018-01-01T00:00:00Z"),
    ])
    def test_fractions_of_a_second_are_floored(self, text, floor):
        assert format_timestamp(parse_timestamp(text)) == floor

    @pytest.mark.parametrize("text,instant", [
        ("0001-01-01T00:00:00Z", "0001-01-01T00:00:00Z"),
        ("0001-01-01T01:00:00+01:00", "0001-01-01T00:00:00Z"),
        ("9999-12-31T23:59:59Z", "9999-12-31T23:59:59Z"),
        ("9999-12-31T21:59:59-02:00", "9999-12-31T23:59:59Z"),
    ])
    def test_first_and_last_utc_second_are_accepted(self, text, instant):
        assert format_timestamp(parse_timestamp(text)) == instant

    @pytest.mark.parametrize("text", [
        "0001-01-01T00:00:00+01:00", "0001-01-01T00:59:59+01:00",
        "9999-12-31T23:00:00-02:00", "9999-12-31T22:00:00-02:00",
    ])
    def test_offset_beyond_the_utc_years_is_rejected(self, text):
        # Either instant would be written back with year 0000 or 10000.
        with pytest.raises(ValueError, match=r"outside UTC years 0001-9999$"):
            parse_timestamp(text)

    @pytest.mark.parametrize("created,at", [
        ("0001-01-01T00:00:00+01:00", "0001-01-01T00:00:00+01:00"),
        ("2018-01-01T00:00:00Z", "9999-12-31T23:00:00-02:00"),
    ], ids=["year-0", "year-10000"])
    def test_offset_beyond_the_utc_years_is_a_data_error(self, tmp_path, capsys, created, at):
        from wtps.cli import EXIT_DATA, main

        source = _write(tmp_path, _repo_line(created=created), _event_line(at=at))
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--input", str(source), "--output", str(out)]) == EXIT_DATA
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ParseError"
        assert error["message"].endswith("is outside UTC years 0001-9999")
        assert list(tmp_path.iterdir()) == [source]

    def test_latest_fraction_ingests_and_reingests_alike(self, tmp_path):
        # A float timestamp rounds 9999-12-31T23:59:59.999999 up into year
        # 10000, which the first ingest would write and the second reject.
        from wtps.cli import EXIT_OK, main

        source = _write(tmp_path, _repo_line(), _event_line(at="9999-12-31T23:59:59.999999Z"))
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert main(["ingest", "--input", str(source), "--output", str(first)]) == EXIT_OK
        assert main(["ingest", "--input", str(first), "--output", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert '"captured_at":"9999-12-31T23:59:59Z"' in first.read_text(encoding="utf-8")


class TestLoadCorpus:
    def test_community_sample_totals(self, community_corpus):
        assert len(community_corpus.repos) == 4
        fork_sum = sum(
            e.delta for e in community_corpus.events if e.kind is EventKind.FORK
        )
        star_sum = sum(
            e.delta for e in community_corpus.events if e.kind is EventKind.STAR
        )
        assert fork_sum == 200
        assert star_sum == 180
        assert community_corpus.grid.interval_count == 5

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            load_corpus(path)

    def test_zero_event_repo_seeds_grid_from_creation(self, tmp_path):
        path = _write(tmp_path, _repo_line(created="2018-03-05T09:30:00Z"))
        corpus = load_corpus(path, interval_days=30)
        assert len(corpus.events) == 0
        assert corpus.grid.interval_count == 1
        assert corpus.grid.epoch == parse_timestamp("2018-03-05T00:00:00Z")

    def test_invalid_json_reports_line(self, tmp_path):
        path = _write(tmp_path, _repo_line(), "{not json")
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_blank_line_rejected(self, tmp_path):
        path = _write(tmp_path, _repo_line(), "", _event_line())
        with pytest.raises(ParseError, match="line 2: blank"):
            load_corpus(path)

    def test_unknown_keys_rejected(self, tmp_path):
        line = _repo_line()
        obj = json.loads(line)
        obj["surprise"] = 1
        path = _write(tmp_path, json.dumps(obj))
        with pytest.raises(ParseError, match="unknown keys"):
            load_corpus(path)

    def test_missing_keys_rejected(self, tmp_path):
        obj = json.loads(_repo_line())
        del obj["size_kb"]
        path = _write(tmp_path, json.dumps(obj))
        with pytest.raises(ParseError, match="missing keys"):
            load_corpus(path)

    def test_duplicate_repo_rejected(self, tmp_path):
        path = _write(tmp_path, _repo_line(), _repo_line())
        with pytest.raises(DuplicateRepoId):
            load_corpus(path)

    def test_unknown_event_repo_reports_line(self, tmp_path):
        path = _write(tmp_path, _repo_line(), _event_line(rid="ghost"))
        with pytest.raises(ParseError, match="line 2.*unknown repo_id"):
            load_corpus(path)

    def test_event_before_creation_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            _repo_line(created="2018-06-01T00:00:00Z"),
            _event_line(at="2018-01-02T00:00:00Z"),
        )
        with pytest.raises(EventBeforeCreation):
            load_corpus(path)

    def test_earliest_faulty_event_line_is_reported(self, tmp_path):
        # The two faults are found by one pass over all events; the one on
        # the earlier line wins, whichever kind it is.
        early = _event_line(at="2018-01-02T00:00:00Z")
        ghost = _event_line(rid="ghost", at="2018-07-01T00:00:00Z")
        repo = _repo_line(created="2018-06-01T00:00:00Z")
        path = _write(tmp_path, repo, _event_line(at="2018-06-02T00:00:00Z"), early, ghost)
        with pytest.raises(EventBeforeCreation) as caught:
            load_corpus(path)
        assert str(caught.value) == (
            "line 3: event at 2018-01-02T00:00:00Z predates creation of 'R1'"
        )
        path = _write(tmp_path, repo, ghost, early)
        with pytest.raises(ParseError) as caught:
            load_corpus(path)
        assert str(caught.value) == "line 2: event references unknown repo_id 'ghost'"

    def test_bad_timestamp_before_later_fault_is_reported(self, tmp_path):
        # An event's timestamp is parsed as its line is read, so a bad one
        # comes before any fault on a later line.
        path = _write(
            tmp_path, _repo_line(), _event_line(at="2018-13-01T00:00:00Z"), "{not json"
        )
        with pytest.raises(ParseError, match="^line 2: month must be in 1..12$"):
            load_corpus(path)
        path = _write(tmp_path, _repo_line(), _event_line(at="soon", delta=0))
        with pytest.raises(ParseError, match="^line 2: Invalid isoformat string"):
            load_corpus(path)

    @pytest.mark.parametrize("line,message", [
        ("[1, 2]", "line 1: line is not a JSON object"),
        ('{"repo_id": "R1"}', "line 1: unrecognized line type"),
        ('{"schema_version": 1, "captured_at": "2018-05-01T00:00:00Z", "repo_count": 1,'
         ' "source": "ftp"}', "line 1: unknown source 'ftp'"),
    ], ids=["not-an-object", "no-type-key", "unknown-source"])
    def test_line_of_unknown_shape_rejected(self, tmp_path, line, message):
        path = _write(tmp_path, line, _repo_line())
        with pytest.raises(ParseError) as caught:
            load_corpus(path)
        assert str(caught.value) == message

    def test_zero_delta_rejected(self, tmp_path):
        path = _write(tmp_path, _repo_line(), _event_line(delta=0))
        with pytest.raises(ParseError, match="delta"):
            load_corpus(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = _write(tmp_path, _repo_line(), _event_line(kind="clone"))
        with pytest.raises(ParseError, match="kind"):
            load_corpus(path)

    @pytest.mark.parametrize("value", [-4, 2**63])
    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_negative_count_rejected(self, tmp_path, field, value):
        # Counts are bounded like binned cells, to [0, 2**63).
        path = _write(tmp_path, _repo_line(**{field: value}))
        with pytest.raises(ParseError, match=rf"^line 1: {field} must be in \[0, 2\*\*63\)$"):
            load_corpus(path)

    def test_delta_defaults_to_one(self, tmp_path):
        obj = json.loads(_event_line())
        del obj["delta"]
        path = _write(tmp_path, _repo_line(), json.dumps(obj))
        corpus = load_corpus(path)
        assert corpus.events[0].delta == 1

    def test_manifest_repo_count_mismatch_rejected(self, tmp_path):
        manifest = json.dumps({
            "schema_version": 1,
            "captured_at": "2018-05-01T00:00:00Z",
            "repo_count": 3,
            "source": "file",
        })
        path = _write(tmp_path, manifest, _repo_line())
        with pytest.raises(ParseError, match="repo_count"):
            load_corpus(path)

    def test_manifest_bad_capture_time_is_parse_error(self, tmp_path):
        manifest = json.dumps({
            "schema_version": 1,
            "captured_at": "May 2018",
            "repo_count": 1,
            "source": "file",
        })
        path = _write(tmp_path, manifest, _repo_line())
        with pytest.raises(ParseError, match="^line 1: Invalid isoformat string"):
            load_corpus(path)

    def test_manifest_capture_before_a_creation_is_parse_error(self, tmp_path):
        manifest = json.dumps({
            "schema_version": 1,
            "captured_at": "2018-03-01T00:00:00Z",
            "repo_count": 2,
            "source": "file",
        })
        path = _write(tmp_path, manifest, _repo_line("R1"),
                      _repo_line("R2", created="2018-03-01T00:00:01Z"))
        with pytest.raises(ParseError, match="^line 1: .*captured_at.*'R2'"):
            load_corpus(path)
        path = _write(tmp_path, manifest, _repo_line("R1"),
                      _repo_line("R2", created="2018-03-01T00:00:00Z"))
        assert load_corpus(path).captured_at == parse_timestamp("2018-03-01T00:00:00Z")

    def test_manifest_must_be_first_line(self, tmp_path):
        manifest = json.dumps({
            "schema_version": 1,
            "captured_at": "2018-05-01T00:00:00Z",
            "repo_count": 1,
            "source": "file",
        })
        path = _write(tmp_path, _repo_line(), manifest)
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(path)

    def test_unsupported_schema_version_rejected(self, tmp_path):
        manifest = json.dumps({
            "schema_version": 2,
            "captured_at": "2018-05-01T00:00:00Z",
            "repo_count": 1,
            "source": "file",
        })
        path = _write(tmp_path, manifest, _repo_line())
        with pytest.raises(ParseError, match="schema_version"):
            load_corpus(path)

    def test_file_without_repos_rejected(self, tmp_path):
        path = _write(tmp_path, _event_line())
        with pytest.raises(ParseError, match="no repository lines"):
            load_corpus(path)

    def test_event_order_in_file_does_not_matter(self, tmp_path):
        lines_a = [_repo_line(), _event_line(at="2018-01-05T00:00:00Z"),
                   _event_line(at="2018-01-02T00:00:00Z", kind="star")]
        lines_b = [lines_a[0], lines_a[2], lines_a[1]]
        corpus_a = load_corpus(_write(tmp_path, *lines_a))
        path_b = tmp_path / "b.jsonl"
        path_b.write_text("\n".join(lines_b) + "\n", encoding="utf-8")
        corpus_b = load_corpus(path_b)
        assert corpus_a == corpus_b


class TestSaveCorpus:
    def test_round_trip_identity_on_sample(self, community_corpus, tmp_path):
        out = tmp_path / "copy.jsonl"
        manifest = save_corpus(community_corpus, out)
        assert manifest.repo_count == 4
        assert manifest.source is DatasetSource.FILE
        assert load_corpus(out, interval_days=30) == community_corpus

    def test_source_must_be_a_dataset_source(self, community_corpus, tmp_path):
        out = tmp_path / "copy.jsonl"
        with pytest.raises(ValueError, match="^source must be a DatasetSource, got 'file'$"):
            save_corpus(community_corpus, out, source="file")
        assert list(tmp_path.iterdir()) == []

    def test_resave_is_byte_identical(self, community_corpus, tmp_path):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        save_corpus(community_corpus, first)
        save_corpus(load_corpus(first, interval_days=30), second)
        assert first.read_bytes() == second.read_bytes()

    def test_negative_deltas_survive_round_trip(self, tmp_path):
        repo = RepoRecord(repo_id="R1", full_name="o/r", created_at=BASE_TS)
        events = [
            PopularityEvent("R1", EventKind.STAR, BASE_TS + DAY, 5),
            PopularityEvent("R1", EventKind.STAR, BASE_TS + 2 * DAY, -3),
        ]
        corpus = Corpus.build([repo], events, interval_days=30)
        out = tmp_path / "neg.jsonl"
        save_corpus(corpus, out)
        loaded = load_corpus(out)
        assert loaded == corpus
        assert sorted(e.delta for e in loaded.events) == [-3, 5]

    def test_large_synthetic_manifest_count(self, tmp_path):
        rng = random.Random(1)
        corpus = make_corpus(rng, n_repos=1000, n_intervals=1, max_delta=1)
        manifest = save_corpus(corpus, tmp_path / "big.jsonl")
        assert manifest.repo_count == 1000

    def test_random_corpora_round_trip(self, tmp_path):
        for seed in range(10):
            rng = random.Random(seed)
            corpus = make_corpus(
                rng,
                n_repos=rng.randint(1, 12),
                n_intervals=rng.randint(1, 5),
                allow_negative=seed % 2 == 0,
                follower_pool=rng.randint(0, 6),
            )
            out = tmp_path / f"roundtrip_{seed}.jsonl"
            save_corpus(corpus, out)
            assert load_corpus(out, interval_days=30) == corpus
