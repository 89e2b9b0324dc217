"""The command line's cache of loaded corpora (``wtps.cli.load_cached``) and
of ``graph-deletion``'s intact-graph state (``wtps.cli._OverlapMemo``). The
cache lives in ``wtps.cli`` alone: no library module imports it, and tests
fake the parser by patching ``wtps.dataset.load_corpus``, which ``wtps.cli``
imports on a miss.

Both kinds of entry have one layout, ``wtps.cli._CacheEntry``'s: a digest,
a JSON head line ``[format, count, value]``, then the columns, which only a
corpus has. A hit must give what parsing or measuring gives: the same corpus
at every width, and the same output bytes from every command. An entry of
either kind that is missing, damaged, of another format or written under
other sources is passed over, the file is parsed or the graph measured, and
the entry is written again. Nothing about the cache may change an outcome: a
failed load writes no entry, a cache that cannot be written costs only
speed, and a configuration error reads neither the input nor the cache.
Only ``test_generated_files`` needs hypothesis, and only it is skipped
without it.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from array import array
from collections import Counter
from hashlib import blake2b
from pathlib import Path
from types import SimpleNamespace

import pytest

import wtps
from wtps import Indicator, graph, load_corpus, model
from wtps.cli import (_CACHE_FORMAT, _STATE_FORMAT, EXIT_CONFIG, EXIT_DATA, EXIT_OK, load_cached,
                      main)
from wtps.dataset import save_corpus
from wtps.model import CoefficientKind, Corpus, replace
from conftest import COMMUNITY_SAMPLE, FOLLOWER_SAMPLE
from synth import make_corpus
from test_golden import DIGESTS, run_all

WIDTHS = (1, 7, 30)
ENTRY = "import sys\nfrom wtps.cli import main\nsys.exit(main(sys.argv[1:]))"


class Parses:
    """``load_corpus``, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, path, interval_days):
        self.calls += 1
        return load_corpus(path, interval_days=interval_days)


def cached(path, days, parse):
    """``load_cached(path, days)``, with ``parse`` in ``load_corpus``'s place."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("wtps.dataset.load_corpus", parse)
        return load_cached(path, days)


def no_parse(path, interval_days):
    raise AssertionError("the file was parsed")


def untouched(*args, **kwargs):
    raise AssertionError("the input or the cache was read")


def entries(cache_home: Path) -> list[Path]:
    folder = cache_home / "wtps"
    return sorted(folder.iterdir()) if folder.exists() else []


def assert_same(got, expected):
    assert got == expected
    assert got.grid == expected.grid
    assert got.captured_at == expected.captured_at
    assert ([c.typecode for c in (got._repo, got._kind, got._time, got._delta)]
            == [c.typecode for c in (expected._repo, expected._kind, expected._time,
                                     expected._delta)])


def assert_hits_equal_parses(path):
    """Each width's hit is the corpus ``load_corpus`` gives at that width."""
    for days in WIDTHS:
        assert_same(cached(path, days, no_parse), load_corpus(path, interval_days=days))


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")
    return path


def saved(corpus, path: Path, manifest: bool = True) -> Path:
    save_corpus(corpus, path)
    if not manifest:
        lines = path.read_text(encoding="utf-8").splitlines()
        write_lines(path, lines[1:])
    return path


def respelled(path: Path, out: Path, seed: int) -> Path:
    """``path``'s lines shuffled (repositories first), with every other event
    line spelled as JSON with spaces, an offset instead of "Z" and, where
    the delta is 1, no delta."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = [line for line in lines if '"kind"' not in line]
    events = [line for line in lines if '"kind"' in line]
    random.Random(seed).shuffle(events)
    for i in range(0, len(events), 2):
        obj = json.loads(events[i])
        obj["occurred_at"] = obj["occurred_at"].replace("Z", "+00:00")
        if obj.get("delta") == 1:
            del obj["delta"]
        events[i] = json.dumps(obj, separators=(", ", ": "))
    return write_lines(out, head + events)


def inputs(folder: Path) -> dict[str, Path]:
    """One file per kind of input a hit must reproduce."""
    rng = random.Random(20)
    signed = make_corpus(rng, n_repos=12, n_intervals=9, allow_negative=True)
    unit = make_corpus(rng, n_repos=6, n_intervals=4, max_delta=6, unit_events=True,
                       follower_pool=9)
    repo_lines = [line for line in COMMUNITY_SAMPLE.read_text(encoding="utf-8").splitlines()
                  if '"full_name"' in line]
    files = {
        "community": COMMUNITY_SAMPLE,
        "follower": FOLLOWER_SAMPLE,
        "no-events": write_lines(folder / "no-events.jsonl", repo_lines),
        "signed-aggregate": saved(signed, folder / "signed.jsonl"),
        "signed-no-manifest": saved(signed, folder / "signed-bare.jsonl", manifest=False),
        "unit": saved(unit, folder / "unit.jsonl"),
        "unit-no-manifest": saved(unit, folder / "unit-bare.jsonl", manifest=False),
    }
    files["non-canonical"] = respelled(files["signed-aggregate"], folder / "spelled.jsonl", 3)
    files["non-canonical-no-manifest"] = respelled(
        files["unit-no-manifest"], folder / "spelled-bare.jsonl", 4)
    return files


class TestHitEqualsMiss:
    @pytest.mark.parametrize("name", ["community", "follower", "no-events", "signed-aggregate",
                                      "signed-no-manifest", "unit", "unit-no-manifest",
                                      "non-canonical", "non-canonical-no-manifest"])
    def test_hit_is_the_parsed_corpus_at_every_width(self, tmp_path, empty_cache_home, name):
        path = inputs(tmp_path)[name]
        parses = Parses()
        assert_same(cached(path, 30, parses), load_corpus(path, interval_days=30))
        assert parses.calls == 1
        assert len(entries(empty_cache_home)) == 1
        assert_hits_equal_parses(path)

    def test_grid_of_a_corpus_without_events_comes_from_creation_times(self, tmp_path):
        path = inputs(tmp_path)["no-events"]
        cached(path, 7, Parses())
        hit = cached(path, 7, no_parse)
        assert hit.event_count == 0
        assert hit.grid.epoch == min(r.created_at for r in hit.repos)

    def test_manifest_capture_time_is_kept(self, tmp_path):
        files = inputs(tmp_path)
        with_manifest, bare = (cached(files[name], 30, Parses())
                               for name in ("signed-aggregate", "signed-no-manifest"))
        hits = [cached(files[name], 30, no_parse)
                for name in ("signed-aggregate", "signed-no-manifest")]
        assert [hit.captured_at for hit in hits] == [with_manifest.captured_at, bare.captured_at]

    def test_hit_bins_and_scores_through_numpy(self, tmp_path, monkeypatch):
        # The hit's columns serve numpy's views and kernels as parsed ones do.
        monkeypatch.setattr(model, "_NUMPY_FROM", 0)
        path = inputs(tmp_path)["signed-aggregate"]
        cached(path, 30, Parses())
        for days in WIDTHS:
            hit, parsed = cached(path, days, no_parse), load_corpus(path, interval_days=days)
            for name in ("event_repo", "event_kind", "event_time", "event_delta"):
                assert getattr(hit, name).dtype == getattr(parsed, name).dtype
                assert getattr(hit, name).tolist() == getattr(parsed, name).tolist()
            hit_bins, parsed_bins = model.bin_events(hit), model.bin_events(parsed)
            assert hit_bins.vectorized and parsed_bins.vectorized
            assert hit_bins.forks.tolist() == parsed_bins.forks.tolist()
            assert hit_bins.stars.tolist() == parsed_bins.stars.tolist()

    @pytest.mark.parametrize("days,message", [
        (0, "interval_days must be positive"),
        (10**6000, "interval width of more than"),
    ], ids=["zero", "huge"])
    def test_bad_width_raises_the_grids_error_on_a_hit(self, days, message):
        cached(COMMUNITY_SAMPLE, 30, Parses())
        for load in (lambda: cached(COMMUNITY_SAMPLE, days, no_parse),
                     lambda: load_corpus(COMMUNITY_SAMPLE, interval_days=days)):
            with pytest.raises(ValueError, match=message):
                load()

    def test_generated_files(self, tmp_path_factory):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(seed=st.integers(0, 2**32), unit=st.booleans(), negative=st.booleans(),
               manifest=st.booleans(), spelled=st.booleans())
        def check(seed, unit, negative, manifest, spelled):
            folder = tmp_path_factory.mktemp("generated")
            corpus = make_corpus(random.Random(seed), n_repos=5, n_intervals=3, max_delta=4,
                                 unit_events=unit, allow_negative=negative, follower_pool=4)
            path = saved(corpus, folder / "corpus.jsonl", manifest=manifest)
            if spelled:
                path = respelled(path, folder / "spelled.jsonl", seed)
            # The first load may hit an entry of an equal file drawn before.
            assert_same(cached(path, 30, Parses()), load_corpus(path, interval_days=30))
            assert_hits_equal_parses(path)

        check()


def test_library_load_never_touches_the_cache(empty_cache_home):
    load_corpus(COMMUNITY_SAMPLE)
    assert list(empty_cache_home.iterdir()) == []


def test_library_modules_never_load_the_cache():
    # A fresh interpreter, so modules other tests imported do not count.
    script = ("import sys, wtps, wtps.model, wtps.dataset, wtps.scoring, wtps.stats, wtps.graph,"
              " wtps.serialize\n"
              "print(sorted({'wtps.cli', '_blake2', 'hashlib'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(wtps.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


class TestCommandOutputs:
    def test_every_command_writes_the_same_bytes_on_a_miss_and_a_hit(
        self, tmp_path, monkeypatch, empty_cache_home
    ):
        # Every golden run in CSV and JSON: once with the cache emptied
        # before each load, so every load misses, then once with every
        # sample cached and parsing made to fail, so every load hits.
        misses = []

        def cold_load(path, interval_days):
            shutil.rmtree(empty_cache_home / "wtps", ignore_errors=True)
            parses = Parses()
            corpus = cached(path, interval_days, parses)
            misses.append(parses.calls)
            return corpus

        monkeypatch.setattr("wtps.cli.load_cached", cold_load)
        (tmp_path / "miss").mkdir()
        missed = run_all(tmp_path / "miss")
        monkeypatch.setattr("wtps.cli.load_cached", load_cached)
        assert misses and set(misses) == {1}

        monkeypatch.setattr("wtps.dataset.load_corpus", no_parse)
        for sample in (COMMUNITY_SAMPLE, FOLLOWER_SAMPLE):
            cached(sample, 30, Parses())
        (tmp_path / "hit").mkdir()
        hit = run_all(tmp_path / "hit")
        assert hit == missed == json.loads(DIGESTS.read_text(encoding="utf-8"))
        for name in sorted(p.name for p in (tmp_path / "miss").iterdir()):
            if not name.endswith(".meta.json"):
                assert ((tmp_path / "miss" / name).read_bytes()
                        == (tmp_path / "hit" / name).read_bytes()), name

    def test_quick_start_runs_in_fresh_interpreters(self, tmp_path, empty_cache_home):
        # A miss and then a hit, each in its own process as users run the
        # tool, give the same bytes; neither loads hashlib's OpenSSL module.
        script = ENTRY.replace("sys.exit(", "code = (") + "\nprint('_hashlib' in sys.modules)"
        script += "\nsys.exit(code)"
        env = {**os.environ, "PYTHONPATH": str(Path(wtps.__file__).resolve().parents[1])}
        outputs = []
        for run in ("miss", "hit"):
            out = tmp_path / run
            out.mkdir()
            result = subprocess.run(
                [sys.executable, "-c", script, "score", "--input", str(COMMUNITY_SAMPLE),
                 "--output", "scores.csv"],
                cwd=out, env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            assert result.stdout == "False\n"
            outputs.append([(out / name).read_bytes()
                            for name in ("scores.csv", "scores.csv.meta.json")])
            assert len(entries(empty_cache_home)) == 1
        assert outputs[0] == outputs[1]


def test_file_changed_while_parsed_gets_no_entry(tmp_path, empty_cache_home):
    path = saved(make_corpus(random.Random(6), n_repos=3, n_intervals=3), tmp_path / "d.jsonl")
    text = path.read_text(encoding="utf-8")

    def parse_then_change(path, interval_days):
        corpus = load_corpus(path, interval_days=interval_days)
        path.write_text(text.replace('"delta":', '"delta":-', 1), encoding="utf-8", newline="")
        return corpus

    assert cached(path, 30, parse_then_change) != load_corpus(path)
    assert entries(empty_cache_home) == []
    parses = Parses()
    assert_same(cached(path, 30, parses), load_corpus(path))
    assert parses.calls == 1


def test_changed_digit_with_the_same_size_and_mtime(tmp_path):
    corpus = make_corpus(random.Random(5), n_repos=3, n_intervals=3, max_delta=5)
    path = saved(corpus, tmp_path / "d.jsonl")
    first = cached(path, 30, Parses())
    stat = path.stat()
    text = path.read_text(encoding="utf-8")
    at = text.index('"delta":') + len('"delta":')
    digit = text[at] if text[at] != "-" else text[at + 1]
    at = text.index(digit, at)
    path.write_text(text[:at] + ("2" if digit != "2" else "3") + text[at + 1:],
                    encoding="utf-8", newline="")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    parses = Parses()
    changed = cached(path, 30, parses)
    assert parses.calls == 1
    assert_same(changed, load_corpus(path))
    assert changed != first


class TestCacheDirectory:
    def test_default_directory_is_under_the_home_cache(self, tmp_path, monkeypatch):
        # An unset, empty or relative XDG_CACHE_HOME leaves ~/.cache.
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        parses = Parses()
        for xdg in (None, "", "relative/cache"):
            if xdg is None:
                monkeypatch.delenv("XDG_CACHE_HOME")
            else:
                monkeypatch.setenv("XDG_CACHE_HOME", xdg)
            cached(COMMUNITY_SAMPLE, 30, parses)
        assert parses.calls == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home"]
        folder = tmp_path / "home" / ".cache" / "wtps"
        assert len(list(folder.iterdir())) == 1
        assert folder.stat().st_mode & 0o777 == 0o700
        cached(COMMUNITY_SAMPLE, 30, no_parse)

    def test_newest_sixteen_entries_are_kept(self, tmp_path, empty_cache_home):
        lines = COMMUNITY_SAMPLE.read_text(encoding="utf-8").splitlines()[1:]
        written = []
        for i in range(18):
            path = write_lines(tmp_path / f"{i}.jsonl", lines + [lines[0].replace("R1", f"X{i}")])
            before = set(entries(empty_cache_home))
            cached(path, 30, Parses())
            (new,) = set(entries(empty_cache_home)) - before
            os.utime(new, ns=(10**9 * i, 10**9 * i))
            written.append(new)
        assert entries(empty_cache_home) == sorted(written[2:])
        cached(tmp_path / "17.jsonl", 30, no_parse)

    @pytest.mark.parametrize("blocker", ["home-is-a-file", "folder-is-a-file", "replace-denied"])
    def test_unwritable_cache_costs_only_speed(self, tmp_path, monkeypatch, empty_cache_home,
                                               blocker):
        out = tmp_path / "out"
        out.mkdir()

        def rank(fmt):
            assert main(["rank", "--input", str(COMMUNITY_SAMPLE), "--indicator", "wtps",
                         "--output", str(out / f"r.{fmt}"), "--format", fmt]) == EXIT_OK
            return [(out / name).read_bytes() for name in (f"r.{fmt}", f"r.{fmt}.meta.json")]

        reference = {fmt: rank(fmt) for fmt in ("csv", "json")}
        cache_home = tmp_path / "cache"
        if blocker == "home-is-a-file":
            cache_home.write_bytes(b"")
        elif blocker == "folder-is-a-file":
            cache_home.mkdir()
            (cache_home / "wtps").write_bytes(b"")
        else:
            replace = os.replace

            def denied(source, target):
                if Path(target).parent == cache_home / "wtps":
                    raise PermissionError(13, "Permission denied", str(target))
                replace(source, target)

            monkeypatch.setattr(os, "replace", denied)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
        for fmt in ("csv", "json"):
            assert rank(fmt) == rank(fmt) == reference[fmt]
        if blocker == "replace-denied":
            assert list((cache_home / "wtps").iterdir()) == []


@pytest.mark.parametrize("lines", [
    ['{"bad": 1}'],
    [],
    ["not json"],
    [COMMUNITY_SAMPLE.read_text(encoding="utf-8").splitlines()[1]] * 2,
    [COMMUNITY_SAMPLE.read_text(encoding="utf-8").splitlines()[1],
     '{"repo_id":"R1","kind":"star","occurred_at":"2017-01-01T00:00:00Z"}'],
], ids=["unknown-line", "empty", "not-json", "duplicate-repo", "event-before-creation"])
def test_failed_load_writes_no_entry(tmp_path, capsys, empty_cache_home, lines):
    path = write_lines(tmp_path / "bad.jsonl", lines)
    for _ in range(2):
        code = main(["score", "--input", str(path), "--output", str(tmp_path / "out.csv")])
        assert code == EXIT_DATA
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and errors[0] == errors[1]
    assert list(empty_cache_home.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


@pytest.mark.parametrize("argv", [
    ["score", "--interval-days", "0"],
    ["score", "--interval-days", str(10**30)],
    ["sweep", "--interval-days-list", "30,0"],
    ["rank", "--indicator", "forks", "--weights-one"],
    ["graph-deletion", "--measure", "stars", "--steps", "-1"],
    ["classify", "--indicator", "forks", "--loss-fraction", "nan"],
], ids=["width-0", "width-huge", "sweep-width-0", "rank-weights-one-forks",
        "deletion-steps-negative", "classify-loss-nan"])
def test_config_error_reads_neither_input_nor_cache(tmp_path, capsys, monkeypatch,
                                                    empty_cache_home, argv):
    cached(COMMUNITY_SAMPLE, 30, Parses())
    (entry,) = entries(empty_cache_home)
    monkeypatch.setattr("wtps.cli.load_cached", untouched)
    monkeypatch.setattr("wtps.dataset.load_corpus", untouched)
    code = main([argv[0], "--input", str(COMMUNITY_SAMPLE), "--output", str(tmp_path / "out"),
                 *argv[1:]])
    assert code == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert entries(empty_cache_home) == [entry]
    assert list(tmp_path.iterdir()) == []


def test_pruning_spares_other_writers_temp_files(tmp_path, empty_cache_home):
    # A concurrent run's temp file, older than every entry, is neither
    # counted nor deleted, so that run's os.replace still finds it.
    folder = empty_cache_home / "wtps"
    folder.mkdir()
    temp = folder / f".{'0' * 64}.99999.tmp"
    temp.write_bytes(b"in flight")
    os.utime(temp, ns=(0, 0))
    lines = COMMUNITY_SAMPLE.read_text(encoding="utf-8").splitlines()[1:]
    for i in range(17):
        path = write_lines(tmp_path / f"{i}.jsonl", lines + [lines[0].replace("R1", f"X{i}")])
        cached(path, 30, Parses())
    assert temp.read_bytes() == b"in flight"
    assert len([e for e in entries(empty_cache_home) if e != temp]) == 16


# --- graph-deletion's intact-graph state --------------------------------------

DELETION_RUNS = {
    **{measure.value: ["--measure", measure.value] for measure in Indicator},
    "wtps-weights-one": ["--measure", "wtps", "--weights-one"],
}
STEPS = {"steps-0": ["--steps", "0"], "steps-1": ["--steps", "1"], "default": []}


def split(data: bytes) -> tuple[list, bytes]:
    """An entry's head line ``[format, count, value]``, decoded, and the
    columns after it."""
    end = data.index(b"\n", 32) + 1
    return json.loads(data[32:end]), data[end:]


def joined(head: list, columns: bytes) -> bytes:
    """The entry of ``head`` and ``columns`` under their digest, as
    ``_CacheEntry.write`` writes it."""
    payload = (json.dumps(head, separators=(",", ":")) + "\n").encode() + columns
    return blake2b(payload, digest_size=32).digest() + payload


def layouts(cache_home: Path) -> Counter:
    """The number of entries of each format."""
    return Counter(split(entry.read_bytes())[0][0] for entry in entries(cache_home))


def heavy_tailed(folder: Path) -> Path:
    """60 repositories whose 240 followers have Pareto(1.5) degrees, as in
    ``test_graph._pareto_graph``."""
    rng = random.Random(23)
    corpus = make_corpus(rng, n_repos=60, n_intervals=4, max_delta=6)
    ids = sorted(corpus.repo_ids)
    followers = {rid: [] for rid in ids}
    for i in range(240):
        for rid in rng.sample(ids, min(len(ids), int(rng.paretovariate(1.5)))):
            followers[rid].append(f"f{i}")
    repos = [replace(r, follower_ids=tuple(followers[r.repo_id])) for r in corpus.repos]
    return saved(Corpus.build(repos, corpus.events), folder / "heavy.jsonl")


class Builds:
    """``graph._twin_classes``, counting its calls: one per state built."""

    def __init__(self):
        self.calls = 0
        self.twin_classes = graph._twin_classes

    def __call__(self, g):
        self.calls += 1
        return self.twin_classes(g)


@pytest.fixture
def builds(monkeypatch):
    counter = Builds()
    monkeypatch.setattr(graph, "_twin_classes", counter)
    return counter


def deletion(folder: Path, path: Path, *flags: str, fmt: str = "csv") -> list[bytes]:
    """Run graph-deletion in ``folder`` with a relative output, so runs in two
    folders write the same sidecar bytes; its data file and sidecar."""
    folder.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        code = main(["graph-deletion", "--input", str(path), "--output", f"d.{fmt}",
                     "--format", fmt, *flags])
    finally:
        os.chdir(cwd)
    assert code == EXIT_OK
    return [(folder / name).read_bytes() for name in (f"d.{fmt}", f"d.{fmt}.meta.json")]


class TestOverlapState:
    @pytest.mark.parametrize("name", ["follower", "heavy-tailed"])
    def test_hit_equals_miss(self, tmp_path, monkeypatch, empty_cache_home, builds, name):
        # Every measure, with and without --weights-one, at --steps 0, 1
        # and the default, in CSV and JSON: a run that builds the state and
        # one that restores it write the same bytes and the same series.
        path = FOLLOWER_SAMPLE if name == "follower" else heavy_tailed(tmp_path)
        deletion(tmp_path / "warm", path, "--measure", "stars")
        assert layouts(empty_cache_home) == {_CACHE_FORMAT: 1, _STATE_FORMAT: 1}
        for run, flags in DELETION_RUNS.items():
            for steps, more in STEPS.items():
                for fmt in ("csv", "json"):
                    case = f"{run}-{steps}-{fmt}"
                    cold = tmp_path / "cold" / case
                    monkeypatch.setenv("XDG_CACHE_HOME", str(cold))
                    before = builds.calls
                    built = deletion(tmp_path / "miss" / case, path, *flags, *more, fmt=fmt)
                    assert builds.calls == before + 1, case
                    assert layouts(cold) == {_CACHE_FORMAT: 1, _STATE_FORMAT: 1}
                    monkeypatch.setenv("XDG_CACHE_HOME", str(empty_cache_home))
                    restored = deletion(tmp_path / "hit" / case, path, *flags, *more, fmt=fmt)
                    assert builds.calls == before + 1, case
                    assert restored == built, case
                    values = [[v.hex() for v in json.loads(meta)["series"]["values"]]
                              for _, meta in (built, restored)]
                    assert values[0] == values[1], case
        assert layouts(empty_cache_home) == {_CACHE_FORMAT: 1, _STATE_FORMAT: 1}

    def test_second_measure_does_not_build(self, tmp_path, monkeypatch):
        deletion(tmp_path / "stars", FOLLOWER_SAMPLE, "--measure", "stars")
        monkeypatch.setattr(graph, "_twin_classes", untouched)
        deletion(tmp_path / "wtps", FOLLOWER_SAMPLE, "--measure", "wtps")

    def test_two_samples_make_two_state_entries(self, tmp_path, empty_cache_home, builds):
        path = heavy_tailed(tmp_path)
        first = [deletion(tmp_path / f"seed-{seed}", path, "--measure", "wtps",
                          "--sample-repos", "30", "--seed", str(seed)) for seed in (1, 2)]
        assert builds.calls == 2
        assert layouts(empty_cache_home) == {_CACHE_FORMAT: 1, _STATE_FORMAT: 2}
        again = [deletion(tmp_path / f"again-{seed}", path, "--measure", "wtps",
                          "--sample-repos", "30", "--seed", str(seed)) for seed in (1, 2)]
        assert builds.calls == 2
        assert again == first

    @pytest.mark.parametrize("coefficient", ["global_transitivity", "average_local"])
    def test_triangle_kinds_neither_build_nor_store(self, tmp_path, empty_cache_home, builds,
                                                    coefficient):
        deletion(tmp_path, FOLLOWER_SAMPLE, "--measure", "wtps", "--coefficient", coefficient)
        assert builds.calls == 0
        assert layouts(empty_cache_home) == {_CACHE_FORMAT: 1}

    def test_refused_steps_store_no_state(self, tmp_path, capsys, empty_cache_home, builds):
        code = main(["graph-deletion", "--input", str(FOLLOWER_SAMPLE), "--measure", "stars",
                     "--output", str(tmp_path / "d.csv"), "--steps", "4"])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["message"] == (
            "--steps 4 exceeds repository count 3")
        assert builds.calls == 0
        assert layouts(empty_cache_home) == {_CACHE_FORMAT: 1}
        assert list(tmp_path.iterdir()) == []

    def test_library_calls_never_touch_the_cache(self, empty_cache_home, follower_corpus):
        g = graph.build_graph(follower_corpus)
        scores = graph.scores_for_measure(follower_corpus, Indicator.STARS)
        graph.deletion_experiment(g, scores, steps=3)
        graph.clustering_coefficient(g, CoefficientKind.BIPARTITE_LATAPY)
        assert list(empty_cache_home.iterdir()) == []

    @pytest.mark.parametrize("blocker", ["home-is-a-file", "folder-is-a-file", "replace-denied"])
    def test_unwritable_cache_costs_only_speed(self, tmp_path, monkeypatch, builds, blocker):
        reference = {fmt: deletion(tmp_path / "reference", FOLLOWER_SAMPLE, "--measure", "wtps",
                                   fmt=fmt) for fmt in ("csv", "json")}
        cache_home = tmp_path / "cache"
        if blocker == "home-is-a-file":
            cache_home.write_bytes(b"")
        elif blocker == "folder-is-a-file":
            cache_home.mkdir()
            (cache_home / "wtps").write_bytes(b"")
        else:
            replace_file = os.replace

            def denied(source, target):
                if Path(target).parent == cache_home / "wtps":
                    raise PermissionError(13, "Permission denied", str(target))
                replace_file(source, target)

            monkeypatch.setattr(os, "replace", denied)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
        before = builds.calls
        for fmt in ("csv", "json"):
            for run in ("first", "second"):
                assert deletion(tmp_path / run, FOLLOWER_SAMPLE, "--measure", "wtps",
                                fmt=fmt) == reference[fmt]
        assert builds.calls == before + 4
        if blocker == "replace-denied":
            assert list((cache_home / "wtps").iterdir()) == []


# --- damaged entries of both kinds --------------------------------------------

KINDS = {"corpus": _CACHE_FORMAT, "state": _STATE_FORMAT}


def relayout(data: bytes, byteorder: str, q_size: int) -> bytes:
    """The corpus entry ``data`` as a machine whose columns have
    ``byteorder`` and ``q_size``-byte "q" items would write it."""
    (layout, count, value), body = split(data)
    assert layout == _CACHE_FORMAT
    columns = []
    for code in model._COLUMN_TYPES:
        column = array(code)
        column.frombytes(body[:count * column.itemsize])
        body = body[count * column.itemsize:]
        size = q_size if code == "q" else column.itemsize
        columns.append(b"".join(v.to_bytes(size, byteorder, signed=True) for v in column))
    fmt = _CACHE_FORMAT.replace(sys.byteorder, byteorder).replace("q8", f"q{q_size}")
    return joined([fmt, count, value], b"".join(columns))


def followed(folder: Path) -> Path:
    """The community sample, events and all, with the follower sample's
    followers, so one graph-deletion run writes a corpus entry with columns
    and a state entry."""
    followers = {}
    for line in FOLLOWER_SAMPLE.read_text(encoding="utf-8").splitlines()[1:]:
        repo = json.loads(line)
        followers[repo["repo_id"]] = repo["follower_ids"]
    lines = COMMUNITY_SAMPLE.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if '"full_name"' in line:
            repo = json.loads(line)
            repo["follower_ids"] = followers.get(repo["repo_id"], [])
            lines[i] = json.dumps(repo, separators=(",", ":"))
    return write_lines(folder / "followed.jsonl", lines)


class TestDamagedEntries:
    """An entry of either kind that is damaged, truncated, of another format
    or kind, or written under other sources is passed over: the run parses
    the file or measures the graph once more, reads the other kind's entry,
    rewrites the entry as it was and writes the same bytes."""

    @pytest.fixture(params=list(KINDS))
    def stored(self, request, tmp_path, monkeypatch, empty_cache_home, builds):
        """A graph-deletion run's entry of this kind and its bytes, the
        other kind's entry, the run's input and output, and the counters of
        parses and builds, this kind's first."""
        parses = Parses()
        monkeypatch.setattr("wtps.dataset.load_corpus", parses)
        path = followed(tmp_path)
        output = deletion(tmp_path / "first", path, "--measure", "stars")
        (entry,) = [e for e in entries(empty_cache_home)
                    if split(e.read_bytes())[0][0] == KINDS[request.param]]
        (other,) = [e for e in entries(empty_cache_home) if e != entry]
        counters = [parses, builds] if request.param == "corpus" else [builds, parses]
        return SimpleNamespace(path=path, output=output, entry=entry, data=entry.read_bytes(),
                               other=other, counters=counters)

    def assert_rebuilt(self, tmp_path, stored, damaged: bytes | None):
        """Run again with ``damaged`` in the entry's place, or no entry."""
        if damaged is None:
            stored.entry.unlink()
        else:
            stored.entry.write_bytes(damaged)
        before = [counter.calls for counter in stored.counters]
        assert deletion(tmp_path / "again", stored.path, "--measure", "stars") == stored.output
        assert [counter.calls for counter in stored.counters] == [before[0] + 1, before[1]]
        assert stored.entry.read_bytes() == stored.data

    @pytest.mark.parametrize("keep", [0, 31, 32, 100, -25, -2, -1])
    def test_truncated_entry(self, tmp_path, stored, keep):
        self.assert_rebuilt(tmp_path, stored, stored.data[:keep])

    @pytest.mark.parametrize("byte", [b"\0", b"\n"], ids=["nul", "newline"])
    def test_entry_with_a_trailing_byte(self, tmp_path, stored, byte):
        self.assert_rebuilt(tmp_path, stored, stored.data + byte)

    def test_one_bit_flipped_anywhere(self, tmp_path, stored):
        for at in range(0, len(stored.data), 7):
            flipped = bytearray(stored.data)
            flipped[at] ^= 1 << at % 8
            self.assert_rebuilt(tmp_path, stored, bytes(flipped))

    def test_head_nested_too_deep(self, tmp_path, stored):
        # Decoding the head raises RecursionError, before the digest is
        # checked; the command must still pass the entry over.
        self.assert_rebuilt(tmp_path, stored, bytes(32) + b"[" * 100_000 + b"\n")

    def test_other_kinds_entry_in_its_place(self, tmp_path, stored):
        self.assert_rebuilt(tmp_path, stored, stored.other.read_bytes())

    def test_verified_entry_of_another_format(self, tmp_path, stored):
        # A digest that matches does not make an entry of another format,
        # here the previous version's number, this one.
        (layout, count, value), columns = split(stored.data)
        older = layout.replace(" 2", " 1", 1)
        assert older != layout
        self.assert_rebuilt(tmp_path, stored, joined([older, count, value], columns))

    def test_entry_written_under_other_sources(self, tmp_path, stored, empty_cache_home):
        # A copy of the package with one letter of one source changed, its
        # size kept, keys its entries apart: each package neither reads nor
        # replaces the other's entries.
        package = tmp_path / "copy" / "wtps"
        shutil.copytree(Path(wtps.__file__).resolve().parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = (package / "errors.py").read_text(encoding="utf-8")
        assert source.startswith('"""Exception types')
        (package / "errors.py").write_text(source.replace("E", "e", 1), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(package.parent)}

        def run_copy(name):
            result = subprocess.run(
                [sys.executable, "-c", ENTRY, "graph-deletion", "--input", str(stored.path),
                 "--output", str(tmp_path / name), "--measure", "stars"],
                env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            return (tmp_path / name).read_bytes()

        copied = run_copy("copy.csv")
        theirs = {e: e.stat().st_ino for e in entries(empty_cache_home)
                  if e not in (stored.entry, stored.other)}
        assert len(theirs) == 2
        self.assert_rebuilt(tmp_path, stored, None)
        assert run_copy("copy-again.csv") == copied == stored.output[0]
        assert {e: e.stat().st_ino for e in theirs} == theirs

    @pytest.mark.parametrize("stored", ["corpus"], indirect=True)
    def test_relayout_of_the_native_layout_is_the_entry(self, stored):
        # So each layout case below differs from a good entry in its layout only.
        assert relayout(stored.data, sys.byteorder, 8) == stored.data

    @pytest.mark.parametrize("stored", ["corpus"], indirect=True)
    @pytest.mark.parametrize("byteorder,q_size", [
        ("big" if sys.byteorder == "little" else "little", 8),
        (sys.byteorder, 4),
    ], ids=["byte-order", "item-size"])
    def test_other_column_layout(self, tmp_path, stored, byteorder, q_size):
        self.assert_rebuilt(tmp_path, stored, relayout(stored.data, byteorder, q_size))

    @pytest.mark.parametrize("stored", ["state"], indirect=True)
    def test_verified_state_of_another_graph(self, tmp_path, monkeypatch, stored):
        # A digest and a format that match do not make the state of another
        # graph this graph's: ``_fits`` refuses it.
        (layout, count, state), columns = split(stored.data)
        state[0] = {"R1": 0, "R2": 0, "R9": 1}
        fits, graph_fits = [], graph._fits
        monkeypatch.setattr(graph, "_fits", lambda *args: fits.append(graph_fits(*args))
                            or fits[-1])
        self.assert_rebuilt(tmp_path, stored, joined([layout, count, state], columns))
        assert fits == [False]
