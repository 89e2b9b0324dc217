import ast
import csv
import importlib
import io
import json
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from wtps import model, serialize
from wtps.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    main,
)
from wtps.serialize import (
    RANK_COLUMNS,
    SCORE_COLUMNS,
    rank_table,
    score_table,
    to_csv,
    to_json,
)
import wtps
from wtps import Indicator, bin_events, compute_weights, load_corpus, rank, score_all
from wtps.dataset import save_corpus
from wtps.model import COUNT_FIELDS, Corpus, EventKind, PopularityEvent, RepoRecord
from conftest import COMMUNITY_SAMPLE, FOLLOWER_SAMPLE
from synth import BASE_TS, DAY, make_corpus
from test_golden import DIGESTS, run_all


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _sidecar(path: Path) -> dict:
    return json.loads(
        path.with_name(path.name + ".meta.json").read_text(encoding="utf-8")
    )


class TestSerializeTables:
    def test_score_table_column_order(self, community_corpus):
        binned = bin_events(community_corpus)
        cards = score_all(binned, compute_weights(binned))
        header, rows = score_table(cards)
        assert header == SCORE_COLUMNS == ("repo_id", "indicator", "interval_index", "value")
        per_repo = [r for r in rows if r[0] == "R1"]
        assert [r[2] for r in per_repo] == [0, 1, 2, 3, 4, "overall"]

    def test_rank_table_column_order(self, community_corpus):
        entries = rank(community_corpus, Indicator.FORKS)
        header, rows = rank_table(entries, "forks")
        assert header == RANK_COLUMNS
        assert rows[0] == ["R2", "forks", 58, 1]

    def test_csv_and_json_agree(self, community_corpus):
        entries = rank(community_corpus, Indicator.STARS)
        header, rows = rank_table(entries, "stars")
        text = to_csv(header, rows)
        lines = text.strip().split("\n")
        assert lines[0] == "repo_id,indicator,value,rank"
        records = json.loads(to_json(header, rows))
        assert records[0] == {"repo_id": "R4", "indicator": "stars", "value": 55, "rank": 1}
        assert len(records) == len(lines) - 1


class TestScoreCommand:
    def test_overall_scores_match_library(self, tmp_path, community_corpus):
        out = tmp_path / "scores.csv"
        code = main(["score", "--input", str(COMMUNITY_SAMPLE), "--output", str(out)])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert rows[0] == list(SCORE_COLUMNS)
        overall = {
            r[0]: float(r[3]) for r in rows[1:] if r[2] == "overall"
        }
        assert overall["R1"] == pytest.approx(22.2122222222, abs=1e-9)
        assert overall["R2"] == pytest.approx(20.1994444444, abs=1e-9)
        sidecar = _sidecar(out)
        assert sidecar["command"] == "score"
        assert sidecar["config"]["interval_days"] == 30
        assert sidecar["config"]["weights_one"] is False
        assert sidecar["provenance"]["repo_count"] == 4
        assert sidecar["provenance"]["captured_at"].endswith("Z")

    def test_weights_one_mode(self, tmp_path):
        out = tmp_path / "scores.csv"
        code = main([
            "score", "--input", str(COMMUNITY_SAMPLE),
            "--output", str(out), "--weights-one",
        ])
        assert code == EXIT_OK
        overall = {
            r[0]: float(r[3]) for r in _read_csv(out)[1:] if r[2] == "overall"
        }
        assert overall == {"R1": 99.0, "R2": 88.0, "R3": 92.0, "R4": 101.0}

    def test_missing_input_is_config_error_and_no_output(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = main(["score", "--input", str(tmp_path / "nope.jsonl"), "--output", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        error_line = json.loads(capsys.readouterr().err.strip())
        assert error_line["error"] == "ConfigError"
        assert error_line["exit_code"] == EXIT_CONFIG

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(["score", "--input", str(COMMUNITY_SAMPLE), "--output", str(out)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        meta_a = out_a.with_name(out_a.name + ".meta.json").read_text()
        meta_b = out_b.with_name(out_b.name + ".meta.json").read_text()
        assert meta_a.replace("a.csv", "x") == meta_b.replace("b.csv", "x")

    def test_input_not_mutated(self, tmp_path):
        before = COMMUNITY_SAMPLE.read_bytes()
        main(["score", "--input", str(COMMUNITY_SAMPLE), "--output", str(tmp_path / "s.csv")])
        assert COMMUNITY_SAMPLE.read_bytes() == before

    def test_json_format(self, tmp_path):
        out = tmp_path / "scores.json"
        main(["score", "--input", str(COMMUNITY_SAMPLE), "--output", str(out),
              "--format", "json"])
        records = json.loads(out.read_text())
        assert {r["repo_id"] for r in records} == {"R1", "R2", "R3", "R4"}

    def test_nonpositive_totals_sum_negative_zero_cells_to_zero(self, tmp_path):
        # Net totals of -9 forks and -9 stars give all-zero weights, so every
        # cell is exactly zero: -1 * 0 as exact ints, written 0.0, not the
        # -0.0 of the float product -1 * 0.0.
        repo = RepoRecord("R1", "org/R1", BASE_TS)
        events = [PopularityEvent("R1", kind, BASE_TS + week * 7 * DAY, -1)
                  for week in range(9) for kind in EventKind]
        data = tmp_path / "negative.jsonl"
        save_corpus(Corpus.build([repo], events, interval_days=7), data)
        scores, ranks = tmp_path / "scores.csv", tmp_path / "ranks.csv"
        assert main(["score", "--input", str(data), "--output", str(scores),
                     "--interval-days", "7"]) == EXIT_OK
        rows = _read_csv(scores)[1:]
        assert [r[3] for r in rows if r[2] != "overall"] == ["0.0"] * 9
        assert [r[3] for r in rows if r[2] == "overall"] == ["0.0"]
        assert main(["rank", "--input", str(data), "--output", str(ranks),
                     "--interval-days", "7", "--indicator", "wtps"]) == EXIT_OK
        assert _read_csv(ranks)[1] == ["R1", "wtps", "0.0", "1"]


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """A dataset whose score table has 4,900 rows, 7 per repository."""
    path = tmp_path_factory.mktemp("wide") / "wide.jsonl"
    save_corpus(make_corpus(random.Random(7), n_repos=700, n_intervals=6), path)
    return path


@pytest.fixture(scope="module")
def long_dataset(tmp_path_factory):
    """Two repositories over 2,100 days, so that at a width of one day each
    has more than 2,048 score rows."""
    path = tmp_path_factory.mktemp("long") / "long.jsonl"
    save_corpus(make_corpus(random.Random(7), n_repos=2, n_intervals=70), path)
    return path


class TestChunkedOutput:
    """The score table is written one chunk at a time, a chunk being all of
    one repository's rows, to the bytes of its whole rendering."""

    def _score(self, dataset, out, fmt, *flags):
        return main(["score", "--input", str(dataset), "--output", str(out), "--format", fmt,
                     *flags])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_multi_chunk_score_matches_whole_rendering(self, tmp_path, wide_dataset, fmt):
        binned = bin_events(load_corpus(wide_dataset, interval_days=30))
        header, rows = score_table(score_all(binned, compute_weights(binned)))
        assert len(rows) == 4_900
        out = tmp_path / f"scores.{fmt}"
        assert self._score(wide_dataset, out, fmt) == EXIT_OK
        render = to_json if fmt == "json" else to_csv
        assert out.read_bytes() == render(header, rows).encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_on_a_later_chunk_leaves_no_output(
        self, tmp_path, capsys, monkeypatch, long_dataset, fmt
    ):
        pieces_of = serialize._score_pieces
        calls = []

        def fail_second(cards, form):
            for piece in pieces_of(cards, form):
                calls.append(piece)
                if len(calls) == 2:
                    raise OSError("no space left on device")
                yield piece

        monkeypatch.setattr(serialize, "_score_pieces", fail_second)
        out = tmp_path / f"scores.{fmt}"
        assert self._score(long_dataset, out, fmt, "--interval-days", "1") == EXIT_IO
        # The second piece is the second repository's.
        assert len(calls) == 2
        assert calls[1].startswith('  {\n    "repo_id": "repo0001"' if fmt == "json" else "repo0001,")
        assert json.loads(capsys.readouterr().err.strip())["error"] == "OSError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_piece_per_repository(self, tmp_path, monkeypatch, long_dataset, fmt):
        pieces_of = serialize._score_pieces
        pieces = []

        def record(cards, form):
            for piece in pieces_of(cards, form):
                pieces.append(piece)
                yield piece

        monkeypatch.setattr(serialize, "_score_pieces", record)
        out = tmp_path / f"scores.{fmt}"
        assert self._score(long_dataset, out, fmt, "--interval-days", "1") == EXIT_OK
        if fmt == "json":
            rows = [[list(r.values()) for r in json.loads(f"[{piece}]")] for piece in pieces]
            # The pieces are the file's records.
            text = "[\n" + ",\n".join(pieces) + "\n]\n"
        else:
            rows = [list(csv.reader(io.StringIO(piece))) for piece in pieces]
            text = to_csv(SCORE_COLUMNS, []) + "".join(pieces)
        assert text.encode("utf-8") == out.read_bytes()
        assert len(pieces) == 2
        binned = bin_events(load_corpus(long_dataset, interval_days=1))
        intervals = binned.interval_count
        assert intervals > 2_048
        for repo_id, repo_rows in zip(binned.repo_ids, rows):
            assert [row[0] for row in repo_rows] == [repo_id] * (intervals + 1)
            assert [str(row[2]) for row in repo_rows] == [*map(str, range(intervals)), "overall"]


class TestRankCommand:
    def test_fork_ranking_order(self, tmp_path):
        out = tmp_path / "ranks.csv"
        code = main([
            "rank", "--input", str(COMMUNITY_SAMPLE),
            "--output", str(out), "--indicator", "forks",
        ])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert [r[0] for r in rows[1:]] == ["R2", "R1", "R4", "R3"]

    def test_wtps_ranking_order(self, tmp_path):
        out = tmp_path / "ranks.csv"
        main(["rank", "--input", str(COMMUNITY_SAMPLE), "--output", str(out),
              "--indicator", "wtps"])
        assert [r[0] for r in _read_csv(out)[1:]] == ["R1", "R3", "R4", "R2"]

    def test_unknown_indicator_rejected(self, tmp_path, capsys):
        code = main(["rank", "--input", str(COMMUNITY_SAMPLE),
                     "--output", str(tmp_path / "r.csv"), "--indicator", "velocity"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ConfigError",
            "exit_code": EXIT_CONFIG,
            "message": "argument --indicator: invalid choice: 'velocity' "
                       "(choose from 'forks', 'stars', 'watchers', 'wtps')",
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["velocity"], "argument command: invalid choice: 'velocity'"),
        (["score", "--interval-days", "abc"], "argument --interval-days: invalid int value: 'abc'"),
        (["score", "--output", None, "--input"], "argument --input: expected one argument"),
        (["score", "--input", str(COMMUNITY_SAMPLE)],
         "the following arguments are required: --output"),
    ], ids=["unknown-command", "non-integer-width", "flag-without-value", "missing-output"])
    def test_argument_error_is_one_json_line(self, tmp_path, capsys, argv, message):
        argv = [str(tmp_path / "out.csv") if a is None else a for a in argv]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError" and error["exit_code"] == EXIT_CONFIG
        assert error["message"].startswith(message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["rank", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""


class TestAnalysisCommands:
    def test_sweep_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", str(COMMUNITY_SAMPLE), "--output", str(out),
                     "--interval-days-list", "30,21"])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert len(rows) == 5  # header + 2 widths x {forks, stars}
        assert rows[0][0] == "indicator"

    def test_sweep_rejects_bad_list(self, tmp_path, capsys):
        code = main(["sweep", "--input", str(COMMUNITY_SAMPLE),
                     "--output", str(tmp_path / "s.csv"),
                     "--interval-days-list", "30,banana"])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_classify_rows(self, tmp_path):
        out = tmp_path / "growth.csv"
        code = main(["classify", "--input", str(COMMUNITY_SAMPLE), "--output", str(out),
                     "--indicator", "forks"])
        assert code == EXIT_OK
        rows = _read_csv(out)
        patterns = {r[0]: r[2] for r in rows[1:]}
        assert patterns["R3"] == "sustained_growth"
        assert len(rows) == 5

    def test_correlate_skips_constant_columns(self, tmp_path):
        out = tmp_path / "corr.csv"
        code = main(["correlate", "--input", str(COMMUNITY_SAMPLE), "--output", str(out)])
        assert code == EXIT_OK
        rows = _read_csv(out)
        properties = [r[0] for r in rows[1:]]
        assert "forks_total" in properties
        assert "stars_total" in properties
        # every shipped sample repo shares one creation date and zero watchers
        skipped = {entry["property"] for entry in _sidecar(out)["skipped"]}
        assert {"age_days", "watchers_total"} <= skipped

    def test_summarize_features(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = main(["summarize", "--input", str(COMMUNITY_SAMPLE), "--output", str(out)])
        assert code == EXIT_OK
        rows = _read_csv(out)
        features = [r[0] for r in rows[1:]]
        assert features == [
            "forks_total", "stars_total", "watchers_total",
            "age_days", "size_kb", "owner_followers",
        ]
        stars = next(r for r in rows[1:] if r[0] == "stars_total")
        assert float(stars[1]) == 30.0  # minimum
        assert float(stars[5]) == 55.0  # maximum

    def test_repository_created_after_the_last_event_has_age_zero(self, tmp_path):
        # Without a manifest the capture time is the later of the last event
        # and the last creation, so no age is negative.
        repos = [
            json.dumps({"repo_id": rid, "full_name": f"o/{rid}", "created_at": created,
                        "primary_language": None, "size_kb": 1, "owner_followers": 0,
                        "forks_total": 1, "stars_total": 0, "watchers_total": 0,
                        "follower_ids": []})
            for rid, created in (("A", "2018-01-01T00:00:00Z"), ("B", "2018-05-01T00:00:00Z"))
        ]
        event = '{"repo_id":"A","kind":"fork","occurred_at":"2018-01-30T00:00:00Z"}'
        source = tmp_path / "in.jsonl"
        source.write_text("\n".join([*repos, event]) + "\n", encoding="utf-8")
        out = tmp_path / "summary.csv"
        assert main(["summarize", "--input", str(source), "--output", str(out)]) == EXIT_OK
        ages = next(r for r in _read_csv(out)[1:] if r[0] == "age_days")
        assert (float(ages[1]), float(ages[5])) == (0.0, 120.0)  # minimum, maximum
        assert _sidecar(out)["provenance"]["captured_at"] == "2018-05-01T00:00:00Z"
        copy = tmp_path / "copy.jsonl"
        assert main(["ingest", "--input", str(source), "--output", str(copy)]) == EXIT_OK
        manifest = json.loads(copy.read_text(encoding="utf-8").splitlines()[0])
        assert manifest["captured_at"] == "2018-05-01T00:00:00Z"

    def test_manifest_capture_before_a_creation_is_data_error(self, tmp_path, capsys):
        lines = COMMUNITY_SAMPLE.read_text(encoding="utf-8").splitlines()
        manifest = json.loads(lines[0])
        manifest["captured_at"] = "2000-01-01T00:00:00Z"
        source = tmp_path / "in.jsonl"
        source.write_text("\n".join([json.dumps(manifest), *lines[1:]]) + "\n",
                          encoding="utf-8")
        out = tmp_path / "out" / "summary.csv"
        out.parent.mkdir()
        assert main(["summarize", "--input", str(source), "--output", str(out)]) == EXIT_DATA
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ParseError"
        assert error["message"].startswith("line 1: manifest captured_at precedes")
        assert list(out.parent.iterdir()) == []


class TestRejectedRuns:
    """Inputs and flag combinations refused before any output is written."""

    @pytest.mark.parametrize("deltas", [[2**62, 2**62], [2**63], [int("9" * 4299)] * 12],
                             ids=["two-2e62-in-one-cell", "one-2e63", "past-the-int-str-limit"])
    def test_delta_overflow_is_data_error(self, tmp_path, capsys, deltas):
        dataset = tmp_path / "huge.jsonl"
        repo = {"repo_id": "R1", "full_name": "o/r", "created_at": "2018-01-01T00:00:00Z",
                "primary_language": None, "size_kb": 1, "owner_followers": 1,
                "forks_total": 1, "stars_total": 1, "watchers_total": 1,
                "follower_ids": []}
        events = [{"repo_id": "R1", "kind": "star", "occurred_at": "2018-01-02T00:00:00Z",
                   "delta": d} for d in deltas]
        dataset.write_text("".join(json.dumps(o) + "\n" for o in [repo, *events]),
                           encoding="utf-8")
        out = tmp_path / "scores.csv"
        code = main(["score", "--input", str(dataset), "--output", str(out)])
        assert code == EXIT_DATA
        assert json.loads(capsys.readouterr().err.strip())["error"] == "DeltaOverflow"
        assert list(tmp_path.iterdir()) == [dataset]

    @staticmethod
    def _counts_dataset(tmp_path, **counts) -> Path:
        """Two repositories with events; R1 takes its counts from ``counts``."""
        repos = [{"repo_id": rid, "full_name": f"o/{rid}", "created_at": "2018-01-01T00:00:00Z",
                  "primary_language": None, "size_kb": 1, "owner_followers": 1,
                  "forks_total": 3, "stars_total": 2, "watchers_total": 1,
                  "follower_ids": ["f1"]} for rid in ("R1", "R2")]
        repos[0].update(counts)
        events = [{"repo_id": rid, "kind": kind, "occurred_at": f"2018-01-0{day}T00:00:00Z"}
                  for rid, kind, day in [("R1", "fork", 2), ("R2", "star", 3), ("R2", "fork", 4)]]
        dataset = tmp_path / "counts.jsonl"
        dataset.write_text("".join(json.dumps(o) + "\n" for o in [*repos, *events]),
                           encoding="utf-8")
        return dataset

    @pytest.mark.parametrize("argv", [
        ["summarize"], ["correlate"], ["sweep"],
        ["graph-deletion", "--measure", "forks"], ["rank", "--indicator", "forks"],
    ], ids=lambda argv: argv[0])
    def test_count_past_int64_is_data_error(self, tmp_path, capsys, argv):
        # Such a count used to reach float() and exit 1, or rank as is.
        dataset = self._counts_dataset(tmp_path, forks_total=10**400)
        code = main([*argv, "--input", str(dataset), "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ParseError"
        assert error["message"] == "line 1: forks_total must be in [0, 2**63)"
        assert list(tmp_path.iterdir()) == [dataset]

    def test_largest_int64_count_loads_and_round_trips(self, tmp_path, capsys):
        dataset = self._counts_dataset(tmp_path, **dict.fromkeys(COUNT_FIELDS, 2**63 - 1))
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert main(["ingest", "--input", str(dataset), "--output", str(first)]) == EXIT_OK
        assert main(["ingest", "--input", str(first), "--output", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        record = load_corpus(first).repos[0]
        assert [getattr(record, name) for name in COUNT_FIELDS] == [2**63 - 1] * 5
        out = tmp_path / "summary.csv"
        assert main(["summarize", "--input", str(first), "--output", str(out)]) == EXIT_OK
        forks = next(r for r in _read_csv(out)[1:] if r[0] == "forks_total")
        assert float(forks[5]) == float(2**63 - 1)  # maximum
        # One more is past the bound.
        dataset = self._counts_dataset(tmp_path, watchers_total=2**63)
        assert main(["ingest", "--input", str(dataset), "--output", str(first)]) == EXIT_DATA
        assert "watchers_total must be in [0, 2**63)" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [False, True], ids=["data-file", "sidecar"])
    def test_output_onto_input_is_config_error(self, tmp_path, capsys, sidecar):
        dataset = tmp_path / "d.jsonl.meta.json" if sidecar else tmp_path / "d.jsonl"
        dataset.write_bytes(COMMUNITY_SAMPLE.read_bytes())
        out = tmp_path / "d.jsonl"
        for command in (["ingest"], ["score"], ["rank", "--indicator", "wtps"]):
            code = main([command[0], "--input", str(dataset), "--output", str(out),
                         *command[1:]])
            assert code == EXIT_CONFIG
            assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
            assert dataset.read_bytes() == COMMUNITY_SAMPLE.read_bytes()
            assert list(tmp_path.iterdir()) == [dataset]

    def test_output_onto_input_through_symlink_is_config_error(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        dataset.write_bytes(COMMUNITY_SAMPLE.read_bytes())
        link = tmp_path / "link.jsonl"
        link.symlink_to(dataset)
        code = main(["score", "--input", str(dataset), "--output", str(link)])
        assert code == EXIT_CONFIG
        capsys.readouterr()
        assert dataset.read_bytes() == COMMUNITY_SAMPLE.read_bytes()

    @pytest.mark.parametrize("indicator", ["forks", "stars", "watchers"])
    @pytest.mark.parametrize("command,flag", [("rank", "--indicator"),
                                              ("graph-deletion", "--measure")])
    def test_weights_one_with_count_indicator_is_config_error(
        self, tmp_path, capsys, command, flag, indicator
    ):
        out = tmp_path / "out.csv"
        code = main([command, "--input", str(FOLLOWER_SAMPLE), "--output", str(out),
                     flag, indicator, "--weights-one"])
        assert code == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ConfigError" and "--weights-one" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "ingest"])
    def test_failed_sidecar_write_leaves_no_output(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.meta.json").mkdir()
        code = main([command, "--input", str(COMMUNITY_SAMPLE), "--output", str(out)])
        assert code == EXIT_IO
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv.meta.json"]
        assert not any((tmp_path / "out.csv.meta.json").iterdir())

    @pytest.mark.parametrize("argv", [
        ["graph-deletion", "--input", str(FOLLOWER_SAMPLE), "--measure", "stars",
         "--steps", "-1"],
        ["fetch", "--repo", "o/r", "--page-size", "0"],
        ["fetch", "--repo", "o/r", "--requests-per-hour", "0"],
        ["fetch", "--repo", "o/r", "--retry-limit", "-1"],
        ["fetch", "--repo", "a/b/c"],
        ["fetch", "--repo", "/name"],
        ["fetch", "--repo", "owner/"],
        ["fetch", "--repo", "./name"],
        ["fetch", "--repo", "owner/.."],
        ["score", "--input", str(COMMUNITY_SAMPLE), "--interval-days", "0"],
        ["score", "--input", str(COMMUNITY_SAMPLE), "--interval-days", str(10**17)],
        ["sweep", "--input", str(COMMUNITY_SAMPLE), "--interval-days-list", "30,0"],
        ["sweep", "--input", str(COMMUNITY_SAMPLE), "--interval-days-list", f"30,{10**17}"],
        # A local base URL: if the width check regressed, no request leaves the host.
        ["fetch", "--repo", "o/r", "--interval-days", str(10**17),
         "--base-url", "http://127.0.0.1:9"],
        ["fetch", "--repo", "o/r", "--base-url", "notaurl"],
        ["fetch", "--repo", "o/r", "--base-url", "file:///tmp/api"],
        ["fetch", "--repo", "o/r", "--base-url", "https://"],
        ["fetch", "--repo", "o/r", "--base-url", "http://127.0.0.1:9/a b"],
        ["classify", "--input", str(COMMUNITY_SAMPLE), "--indicator", "forks",
         "--loss-fraction", "nan", "--growth-fraction", "nan", "--min-activity", "-5"],
        ["classify", "--input", str(COMMUNITY_SAMPLE), "--indicator", "forks",
         "--loss-fraction", "nan"],
        ["classify", "--input", str(COMMUNITY_SAMPLE), "--indicator", "stars",
         "--growth-fraction", "1.5"],
        ["classify", "--input", str(COMMUNITY_SAMPLE), "--indicator", "stars",
         "--loss-fraction", "-0.1"],
        ["classify", "--input", str(COMMUNITY_SAMPLE), "--indicator", "forks",
         "--growth-fraction", "inf"],
        ["classify", "--input", str(COMMUNITY_SAMPLE), "--indicator", "forks",
         "--min-activity", "-1"],
    ], ids=["steps", "page-size", "requests-per-hour", "retry-limit",
            "repo-three-parts", "repo-no-owner", "repo-no-name", "repo-dot-owner",
            "repo-dot-dot-name",
            "score-width-0", "score-width-huge", "sweep-width-0", "sweep-width-huge",
            "fetch-width-huge", "fetch-base-url-no-scheme", "fetch-base-url-file",
            "fetch-base-url-no-host", "fetch-base-url-space", "classify-all-bad", "classify-loss-nan",
            "classify-growth-above-1", "classify-loss-negative", "classify-growth-inf",
            "classify-activity-negative"])
    def test_bad_numeric_flag_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([*argv, "--output", str(out)])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["classify", "--indicator", "forks", "--loss-fraction", "nan"],
        ["graph-deletion", "--measure", "stars", "--steps", "-1"],
        ["graph-deletion", "--measure", "forks", "--weights-one"],
        ["sweep", "--interval-days-list", "x"],
        ["sweep", "--interval-days-list", "30,0"],
        ["rank", "--indicator", "forks", "--weights-one"],
        ["graph-build", "--sample-repos", "0"],
        ["sweep", "--interval-days-list", ","],
    ], ids=["classify-loss-nan", "deletion-steps-negative", "deletion-weights-one-forks",
            "sweep-list-not-int", "sweep-list-width-0", "rank-weights-one-forks",
            "graph-build-sample-0", "sweep-list-empty"])
    def test_bad_flag_is_rejected_before_the_input_is_read(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"bad": 1}\n', encoding="utf-8")
        out = tmp_path / "out"
        assert main([argv[0], "--input", str(bad), "--output", str(out), *argv[1:]]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

        def no_load(*args, **kwargs):
            raise AssertionError("the input was read")

        monkeypatch.setattr("wtps.dataset.load_corpus", no_load)
        code = main([argv[0], "--input", str(FOLLOWER_SAMPLE), "--output", str(out), *argv[1:]])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("flag", ["--input", "--output"])
    def test_non_utf8_path_is_config_error(self, tmp_path, capsys, flag):
        # argv bytes that are not UTF-8 reach Python as lone surrogates.
        paths = {"--input": tmp_path / "in.jsonl", "--output": tmp_path / "out.csv"}
        paths[flag] = tmp_path / f"{flag[2:]}\udcff"
        shutil.copyfile(COMMUNITY_SAMPLE, paths["--input"])
        code = main(["score", "--input", str(paths["--input"]),
                     "--output", str(paths["--output"])])
        assert code == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ConfigError" and flag in error["message"]
        assert list(tmp_path.iterdir()) == [paths["--input"]]

    @pytest.mark.parametrize("flag", ["score --interval-days", "sweep --interval-days-list"])
    def test_widest_interval_is_the_last_accepted(self, tmp_path, capsys, flag):
        command, option = flag.split()
        widest = (2**63 - 1) // 86_400  # days whose length in seconds fits int64
        for days, expected in ((widest, EXIT_OK), (widest + 1, EXIT_CONFIG)):
            code = main([command, "--input", str(COMMUNITY_SAMPLE),
                         "--output", str(tmp_path / f"{days}.csv"), option, str(days)])
            assert code == expected
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".csv"] == [f"{widest}.csv"]

    def test_widest_interval_is_the_last_accepted_by_the_library(self, monkeypatch):
        # TimeGrid holds the bound, so each way to build a grid takes the same
        # widths on both binning kernels, and they score alike.
        widest = (2**63 - 1) // 86_400
        base = load_corpus(COMMUNITY_SAMPLE)
        builds = (
            lambda days: load_corpus(COMMUNITY_SAMPLE, interval_days=days),
            lambda days: Corpus.build(base.repos, base.events, days, base.captured_at),
            base.regrid,
        )
        scores = []
        for numpy_from in (model._NUMPY_FROM, 0):
            monkeypatch.setattr(model, "_NUMPY_FROM", numpy_from)
            for build in builds:
                binned = bin_events(build(widest))
                assert binned.vectorized == (numpy_from == 0)
                scores.append([(s.repo_id, list(s.interval_scores), s.overall)
                               for s in score_all(binned, compute_weights(binned))])
                for days in (widest + 1, 10**5000):
                    with pytest.raises(ValueError, match=f"^interval width of more than {widest} "
                                                         "days overflows 64-bit seconds$"):
                        build(days)
        assert all(each == scores[0] for each in scores)
        assert sum(overall for _, _, overall in scores[0]) == 380.0

    @pytest.mark.parametrize("field", ["repo_id", "full_name", "primary_language",
                                       "follower_ids"])
    @pytest.mark.parametrize("command", ["ingest", "score", "graph-build"])
    def test_lone_surrogate_is_data_error(self, tmp_path, capsys, command, field):
        # JSON can spell a lone surrogate (\ud800); UTF-8 output cannot.
        repo = {"repo_id": "R1", "full_name": "o/r", "created_at": "2018-01-01T00:00:00Z",
                "primary_language": None, "size_kb": 1, "owner_followers": 1,
                "forks_total": 1, "stars_total": 1, "watchers_total": 1,
                "follower_ids": ["f1"]}
        repo[field] = ["f\ud800"] if field == "follower_ids" else "a\ud800"
        event = {"repo_id": repo["repo_id"], "kind": "star",
                 "occurred_at": "2018-01-02T00:00:00Z"}
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps(repo) + "\n" + json.dumps(event) + "\n",
                           encoding="utf-8")
        code = main([command, "--input", str(dataset), "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ParseError" and "line 1" in error["message"]
        assert list(tmp_path.iterdir()) == [dataset]

    @pytest.mark.parametrize("line,reason", [
        ('{"repo_id":"R1","kind":"star","occurred_at":"2018-01-02T00:00:00Z","delta":1'
         + "0" * 4999 + "}", "invalid JSON: Exceeds the limit"),
        ('{"repo_id":"R5","full_name":"o/r","created_at":"2018-01-01T00:00:00Z",'
         '"primary_language":null,"size_kb":1' + "0" * 4999 + ',"owner_followers":1,'
         '"forks_total":1,"stars_total":1,"watchers_total":1,"follower_ids":[]}',
         "invalid JSON: Exceeds the limit"),
        ('{"repo_id":"R1","kind":"star","occurred_at":"2018-01-02T00:00:00Z","delta":'
         + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON: maximum recursion depth"),
        ('{"repo_id":"R\xff1","kind":"star","occurred_at":"2018-01-02T00:00:00Z"}',
         "invalid UTF-8: byte 0xff"),
    ], ids=["delta-5000-digits", "size-kb-5000-digits", "nested-100000-deep",
            "invalid-utf8"])
    def test_undecodable_line_is_data_error(self, tmp_path, capsys, line, reason):
        dataset = tmp_path / "d.jsonl"
        # Latin-1 keeps 0xff a single byte that is not UTF-8.
        dataset.write_bytes(COMMUNITY_SAMPLE.read_bytes() + line.encode("latin-1") + b"\n")
        code = main(["score", "--input", str(dataset), "--output", str(tmp_path / "out")])
        assert code == EXIT_DATA
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ParseError"
        assert error["message"].startswith(f"line 46: {reason}")
        assert list(tmp_path.iterdir()) == [dataset]


class TestImportSurface:
    def test_package_exports_quick_start_names_and_error_types(self):
        errors = {n for n in wtps.__all__ if isinstance(getattr(wtps, n), type)
                  and issubclass(getattr(wtps, n), wtps.WtpsError)}
        assert len(errors) == 20
        assert set(wtps.__all__) - errors == {
            "load_corpus", "bin_events", "compute_weights", "score_all", "rank", "Indicator",
        }

    def test_readme_module_table_names_import(self):
        # The README's module table is the documented library API.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = re.findall(r"^\| `(wtps\.\w+)` \| (.+) \|$", readme, flags=re.MULTILINE)
        assert [module for module, _ in table] == [
            "wtps.model", "wtps.dataset", "wtps.scoring", "wtps.stats", "wtps.graph", "wtps.api",
        ]
        for module, names in table:
            for name in re.findall(r"`(\w+)`", names):
                assert hasattr(importlib.import_module(module), name), f"{module}.{name}"

    def test_cli_import_does_not_load_requests(self):
        # Only fetch loads the HTTP client modules, about 35 ms without bytecode.
        src = str(Path(wtps.__file__).resolve().parents[1])
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import wtps.cli; "
                 "print(sorted(m for m in ('requests', 'urllib.request', 'http.client') "
                 "if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe, src],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_cli_import_does_not_load_graph_stats_or_serialize(self):
        # Each handler imports the modules its command uses: a cached report
        # loads no dataset module, ingest no scoring. numbers, which only
        # GrowthThresholds reads, would add to every command's memory.
        src = str(Path(wtps.__file__).resolve().parents[1])
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import wtps.cli; "
                 "print(sorted(m for m in ('wtps.graph', 'wtps.stats', 'wtps.serialize', "
                 "'wtps.dataset', 'wtps.scoring', 'numbers') if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe, src],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("statement,loaded", [
        ("import wtps", ["wtps", "wtps.errors"]),
        ("from wtps import load_corpus", ["wtps", "wtps.dataset", "wtps.errors", "wtps.model"]),
    ], ids=["package", "load-corpus"])
    def test_import_loads_only_the_modules_it_names(self, statement, loaded):
        # A fresh interpreter, so modules other tests imported do not count:
        # the package loads the error types, each quick-start name its module.
        src = str(Path(wtps.__file__).resolve().parents[1])
        probe = (f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'wtps'))")
        result = subprocess.run([sys.executable, "-c", probe, src],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == str(loaded)

    # ``dataclasses`` loads these, about 12 ms in each fresh interpreter; the
    # records are built by ``wtps.model.record`` without them.
    INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")

    @pytest.mark.parametrize("command", [
        ["score"], ["sweep"], ["graph-deletion", "--measure", "wtps"],
    ], ids=["score", "sweep", "graph-deletion"])
    def test_cached_command_loads_no_introspection_module(self, tmp_path, command):
        # The first run fills the cache, so the fresh interpreter's run reads
        # it and loads no dataset module either.
        argv = [*command, "--input", str(COMMUNITY_SAMPLE), "--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        src = str(Path(wtps.__file__).resolve().parents[1])
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); from wtps.cli import main; "
                 "code = main(sys.argv[2:]); "
                 f"print(code, sorted(m for m in {(*self.INTROSPECTION, 'wtps.dataset')} "
                 "if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe, src, *argv],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == f"{EXIT_OK} []"

    def test_load_corpus_loads_no_introspection_module(self):
        src = str(Path(wtps.__file__).resolve().parents[1])
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); from wtps import load_corpus; "
                 "load_corpus(sys.argv[2]); "
                 f"print(sorted(m for m in {self.INTROSPECTION} if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe, src, str(COMMUNITY_SAMPLE)],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_quick_start_names_resolve_on_first_access(self):
        namespace = {}
        exec("from wtps import *", namespace)
        assert set(wtps.__all__) <= set(namespace)
        assert namespace["load_corpus"] is wtps.dataset.load_corpus
        assert wtps.Indicator is wtps.scoring.Indicator is wtps.model.Indicator
        with pytest.raises(AttributeError, match="no_such_name"):
            wtps.no_such_name

    def test_commands_and_library_load_run_without_numpy(self, tmp_path):
        # numpy is made unimportable: every golden run (each command but
        # fetch) must still give its golden output, and the library must
        # still load a file, while a documented ndarray attribute needs it.
        src = str(Path(wtps.__file__).resolve().parents[1])
        probe = (
            "import json, pathlib, sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "import wtps\n"
            "from test_golden import DATA_DIR, run_all\n"
            "corpus = wtps.load_corpus(DATA_DIR / 'community_sample.jsonl')\n"
            "try:\n"
            "    corpus.event_time\n"
            "    sys.exit('event_time was built without numpy')\n"
            "except ImportError:\n"
            "    pass\n"
            "print(json.dumps(run_all(pathlib.Path(sys.argv[3]))))\n"
        )
        tests = str(Path(__file__).resolve().parent)
        result = subprocess.run([sys.executable, "-c", probe, src, tests, str(tmp_path)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == json.loads(DIGESTS.read_text(encoding="utf-8"))

    def test_traced_layers_resolve(self, monkeypatch):
        # perfbench/spans.py wraps these functions by name: a rename must fail
        # here rather than drop its span from a traced benchmark run.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        spans = importlib.import_module("spans")
        assert spans.LAYERS
        for module_name, owner_name, attr, _, _ in spans.LAYERS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            assert callable(getattr(owner, attr, None)), (module_name, owner_name, attr)

    def test_every_function_and_method_is_named_elsewhere(self, monkeypatch):
        # Code that nothing calls gets deleted. Each module-level function
        # and method in src/wtps, dunders aside, is named as a word beyond
        # its own definitions in src/wtps, or in the README, or is one that
        # perfbench/spans.py wraps. Names alone are matched, so a namesake
        # or a docstring passes too: this is a guard, not a proof.
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        spans = importlib.import_module("spans")
        known = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
        known |= {attr for _, _, attr, _, _ in spans.LAYERS}
        sources = [path.read_text(encoding="utf-8")
                   for path in sorted(Path(wtps.__file__).resolve().parent.glob("*.py"))]
        words = Counter(word for text in sources for word in re.findall(r"\w+", text))
        defined = Counter()
        for text in sources:
            body = ast.parse(text).body
            for node in [*body, *(n for c in body if isinstance(c, ast.ClassDef) for n in c.body)]:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))):
                    defined[node.name] += 1
        assert len(defined) > 100
        assert sorted(name for name, count in defined.items()
                      if words[name] <= count and name not in known) == []

    def test_tracer_wraps_every_layer_and_restores_it(self, tmp_path, monkeypatch):
        # A traced benchmark run installs every span of perfbench/spans.py,
        # records the layers a command goes through, and leaves wtps as it
        # found it.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        spans = importlib.import_module("spans")
        owners = []
        for module_name, owner_name, attr, _, _ in spans.LAYERS:
            owner = importlib.import_module(module_name)
            owners.append((getattr(owner, owner_name) if owner_name else owner, attr))
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "wtps" or name.startswith("wtps."))]
        before = [dict(vars(m)) for m in modules]
        originals = [getattr(owner, attr) for owner, attr in owners]

        tracer = spans.Tracer()
        tracer.install()
        try:
            for (owner, attr), fn in zip(owners, originals):
                assert getattr(owner, attr) is not fn, attr
            table = tmp_path / "table"
            for fmt in ("csv", "json"):
                serialize.write_table(table, *rank_table([], "wtps"), fmt)
            for command in (["score"], ["rank", "--indicator", "wtps"]):
                assert wtps.cli.main([*command, "--input", str(COMMUNITY_SAMPLE), "--output",
                                      str(tmp_path / f"{command[0]}.csv")]) == EXIT_OK
        finally:
            tracer.uninstall()

        assert [getattr(owner, attr) for owner, attr in owners] == originals
        assert [dict(vars(m)) for m in modules] == before
        names = [record["name"] for record in tracer.records()]
        # write_table renders through the module's to_csv and to_json.
        assert names[:2] == ["serialize.render", "serialize.render"]
        for name in ("cli.main", "dataset.load", "scoring.score_all", "scoring.rank",
                     "serialize.table"):
            assert name in names, name


class TestColumnarCorpus:
    def test_golden_runs_through_numpy_kernels(self, tmp_path, monkeypatch):
        # With every corpus counted as large, numpy sorts, bins and scores:
        # every golden run must still give its golden output.
        monkeypatch.setattr(model, "_NUMPY_FROM", 0)
        assert run_all(tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))

    def test_commands_read_columns_not_event_rows(self, tmp_path, monkeypatch):
        # Every golden run gives its golden output with the row view of the
        # events made unavailable, so no command builds it.
        def row_view(corpus):
            raise AssertionError("a command built corpus.events")

        monkeypatch.setattr(Corpus, "events", property(row_view))
        assert run_all(tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))


class TestGraphCommands:
    def test_graph_build_edge_list(self, tmp_path):
        out = tmp_path / "edges.txt"
        code = main(["graph-build", "--input", str(FOLLOWER_SAMPLE), "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines == sorted(lines)
        sidecar = _sidecar(out)
        assert sidecar["graph"] == {"repo_nodes": 3, "follower_nodes": 4, "edges": 8}

    @pytest.mark.parametrize("repo_id,followers,bad", [
        ("a b", ["c", "d e"], "a b"),
        ("a", ["c", "d e"], "d e"),
        ("a", [""], ""),
        ("a\tb", ["c"], "a\tb"),
        ("a", ["c\nd"], "c\nd"),
        ("a", ["\x1c"], "\x1c"),
        ("é", ["c"], None),
        ("a,b", ["é"], None),
    ], ids=["space-in-repo", "space-in-follower", "empty-follower", "tab", "newline",
            "file-separator", "accented", "comma"])
    def test_graph_build_refuses_ids_an_edge_list_cannot_carry(
        self, tmp_path, capsys, repo_id, followers, bad
    ):
        lines = [json.dumps({"repo_id": rid, "full_name": f"o/{rid}",
                             "created_at": "2018-01-01T00:00:00Z", "primary_language": None,
                             "size_kb": 1, "owner_followers": 1, "forks_total": 0,
                             "stars_total": 0, "watchers_total": 0, "follower_ids": ids})
                 for rid, ids in ((repo_id, followers), ("x", ["c"]))]
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "edges.txt"
        code = main(["graph-build", "--input", str(dataset), "--output", str(out)])
        if bad is None:
            assert code == EXIT_OK
            edges = sorted([(repo_id, f) for f in followers] + [("x", "c")])
            assert out.read_text(encoding="utf-8") == "".join(f"{r} {f}\n" for r, f in edges)
            return
        assert code == EXIT_DOMAIN
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "UnexportableNodeId"
        assert error["message"] == (
            f"edge-list id must be non-empty and free of whitespace, got {bad!r}"
        )
        assert list(tmp_path.iterdir()) == [dataset]

    def test_graph_deletion_series(self, tmp_path):
        out = tmp_path / "deletion.csv"
        code = main(["graph-deletion", "--input", str(FOLLOWER_SAMPLE),
                     "--output", str(out), "--measure", "stars"])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert rows[0] == ["step", "removed_repo_id", "coefficient"]
        assert [r[1] for r in rows[1:]] == ["", "R3", "R1", "R2"]
        assert float(rows[1][2]) == pytest.approx(61 / 126, abs=1e-12)
        series = _sidecar(out)["series"]
        assert series["measure"] == "stars"
        assert len(series["values"]) == 4

    def test_graph_deletion_steps_validation(self, tmp_path, capsys, monkeypatch):
        # --steps is checked before any scoring work.
        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before the --steps check")

        monkeypatch.setattr("wtps.graph.scores_for_measure", no_scoring)
        code = main(["graph-deletion", "--input", str(FOLLOWER_SAMPLE),
                     "--output", str(tmp_path / "d.csv"), "--measure", "stars",
                     "--steps", "9"])
        assert code == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err.strip())
        assert error["message"] == "--steps 9 exceeds repository count 3"
        assert list(tmp_path.iterdir()) == []

    def test_graph_deletion_deterministic(self, tmp_path):
        outs = []
        for name in ("d1.csv", "d2.csv"):
            out = tmp_path / name
            main(["graph-deletion", "--input", str(FOLLOWER_SAMPLE),
                  "--output", str(out), "--measure", "wtps"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sample_repos_is_seeded(self, tmp_path):
        texts = []
        for name in ("e1.txt", "e2.txt"):
            out = tmp_path / name
            main(["graph-build", "--input", str(FOLLOWER_SAMPLE), "--output", str(out),
                  "--sample-repos", "2", "--seed", "5"])
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        sidecar = _sidecar(tmp_path / "e1.txt")
        assert sidecar["provenance"]["repo_count"] == 2


class TestIngestCommand:
    def test_ingest_writes_canonical_copy(self, tmp_path):
        out = tmp_path / "canonical.jsonl"
        code = main(["ingest", "--input", str(COMMUNITY_SAMPLE), "--output", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == COMMUNITY_SAMPLE.read_bytes()
        sidecar = _sidecar(out)
        assert sidecar["manifest"]["repo_count"] == 4

    def test_parse_failure_maps_to_data_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        code = main(["ingest", "--input", str(bad), "--output", str(tmp_path / "c.jsonl")])
        assert code == EXIT_DATA
        error_line = json.loads(capsys.readouterr().err.strip())
        assert error_line["error"] == "ParseError"

    def test_same_key_events_load_and_ingest_alike(self, tmp_path):
        # Two events sharing (occurred_at, repo_id, kind), in either file order.
        repo = {"repo_id": "R1", "full_name": "o/r", "created_at": "2018-01-01T00:00:00Z",
                "primary_language": None, "size_kb": 1, "owner_followers": 1,
                "forks_total": 1, "stars_total": 1, "watchers_total": 1,
                "follower_ids": []}
        events = [{"repo_id": "R1", "kind": "star", "occurred_at": "2018-01-02T00:00:00Z",
                   "delta": d} for d in (2, -1)]
        corpora, outputs = [], []
        for name, order in (("a", events), ("b", events[::-1])):
            dataset = tmp_path / f"{name}.jsonl"
            dataset.write_text("".join(json.dumps(o) + "\n" for o in [repo, *order]),
                               encoding="utf-8")
            corpora.append(load_corpus(dataset))
            out = tmp_path / f"{name}.out.jsonl"
            assert main(["ingest", "--input", str(dataset), "--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert corpora[0] == corpora[1]
        assert outputs[0] == outputs[1]

    def test_degenerate_stats_map_to_domain_exit(self, tmp_path, capsys):
        # single-repo corpus: every snapshot column is constant -> correlate
        # finds nothing to regress, a domain-level failure
        single = tmp_path / "single.jsonl"
        single.write_text(
            json.dumps({
                "repo_id": "R1", "full_name": "o/r",
                "created_at": "2018-01-01T00:00:00Z", "primary_language": None,
                "size_kb": 1, "owner_followers": 1, "forks_total": 1,
                "stars_total": 1, "watchers_total": 1, "follower_ids": [],
            }) + "\n",
            encoding="utf-8",
        )
        code = main(["correlate", "--input", str(single),
                     "--output", str(tmp_path / "c.csv")])
        assert code == EXIT_DOMAIN
        error_line = json.loads(capsys.readouterr().err.strip())
        assert error_line["error"] == "DegenerateInput"
