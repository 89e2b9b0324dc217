"""Golden outputs: every file-based command on both shipped samples, and the
main commands on a generated corpus large enough for ties, long rows and a
heavy-tailed follower graph.

Each run's exit code and the SHA-256 digests of its data file and sidecar are
compared with ``golden_digests.json`` and ``golden_generated.json``. Sidecar
path fields (``config.input``, ``config.output``, ``provenance.input``) are
masked before hashing, so the digests do not depend on where the test runs.
``golden_generated.json`` also holds, under ``errors``, the exit code and
stderr line of ``ingest`` and ``score`` on each faulty input of
``ERROR_INPUTS``. To re-record the digests after an intended output change,
run

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
    PYTHONPATH=src python tests/test_golden.py generated > tests/golden_generated.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
DIGESTS = Path(__file__).with_name("golden_digests.json")
GENERATED_DIGESTS = Path(__file__).with_name("golden_generated.json")
SAMPLES = ("community_sample", "follower_sample")

# Flags appended to ``<command> --input ... --output ... --format ...``.
FORMATTED_RUNS = {
    "ingest": ["ingest"],
    "score": ["score"],
    "score-weights-one": ["score", "--weights-one"],
    "score-7d": ["score", "--interval-days", "7"],
    "rank-forks": ["rank", "--indicator", "forks"],
    "rank-stars": ["rank", "--indicator", "stars"],
    "rank-watchers": ["rank", "--indicator", "watchers"],
    "rank-wtps": ["rank", "--indicator", "wtps"],
    "rank-wtps-weights-one": ["rank", "--indicator", "wtps", "--weights-one"],
    "correlate": ["correlate"],
    "sweep": ["sweep"],
    "sweep-list": ["sweep", "--interval-days-list", "45,10,3"],
    "classify-forks": ["classify", "--indicator", "forks"],
    "classify-stars": ["classify", "--indicator", "stars", "--min-activity", "3"],
    "deletion-forks": ["graph-deletion", "--measure", "forks"],
    "deletion-stars": ["graph-deletion", "--measure", "stars"],
    "deletion-watchers": ["graph-deletion", "--measure", "watchers"],
    "deletion-wtps": ["graph-deletion", "--measure", "wtps"],
    "deletion-wtps-weights-one": ["graph-deletion", "--measure", "wtps", "--weights-one"],
    "deletion-transitivity": ["graph-deletion", "--measure", "wtps",
                              "--coefficient", "global_transitivity"],
    "deletion-local": ["graph-deletion", "--measure", "stars",
                       "--coefficient", "average_local"],
    "deletion-sample": ["graph-deletion", "--measure", "wtps", "--interval-days", "14",
                        "--sample-repos", "2", "--seed", "3", "--steps", "1"],
    "summarize": ["summarize"],
}
# graph-build writes a plain-text edge list and takes no --format.
PLAIN_RUNS = {
    "graph-build": ["graph-build"],
    "graph-build-sample": ["graph-build", "--sample-repos", "2", "--seed", "5"],
}


def _masked_sidecar_digest(path: Path) -> str:
    sidecar = json.loads(path.read_text(encoding="utf-8"))
    for block, key in (("config", "input"), ("config", "output"), ("provenance", "input")):
        if key in sidecar.get(block, {}):
            sidecar[block][key] = "<path>"
    text = json.dumps(sidecar, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_all(workdir: Path, inputs: dict[str, Path] | None = None,
            formatted: dict = FORMATTED_RUNS, plain: dict = PLAIN_RUNS) -> dict[str, dict]:
    """Run every golden command on each input (by name; the shipped samples
    by default); map run name to exit code and digests."""
    from wtps.cli import main

    if inputs is None:
        inputs = {sample: DATA_DIR / f"{sample}.jsonl" for sample in SAMPLES}
    runs = {}
    for sample in inputs:
        for fmt in ("csv", "json"):
            for name, argv in formatted.items():
                runs[f"{sample}/{fmt}/{name}"] = argv + ["--format", fmt]
        for name, argv in plain.items():
            runs[f"{sample}/{name}"] = argv
    results = {}
    for run_name, argv in runs.items():
        sample = run_name.split("/")[0]
        output = workdir / run_name.replace("/", "-")
        sidecar = output.with_name(output.name + ".meta.json")
        code = main(argv[:1] + ["--input", str(inputs[sample]),
                                "--output", str(output)] + argv[1:])
        results[run_name] = {
            "exit": code,
            "data": _digest(output),
            "meta": _masked_sidecar_digest(sidecar) if sidecar.exists() else None,
        }
    return results


def _stamp(t: int, offset: int = 0, fraction: str = "") -> str:
    """Epoch second ``t`` in ISO-8601, at a UTC offset of ``offset`` seconds."""
    local = datetime.fromtimestamp(t + offset, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    if offset:
        return f"{local}{fraction}+{offset // 3600:02d}:{offset // 60 % 60:02d}"
    return f"{local}{fraction}Z"


def generated_lines() -> list[str]:
    """The lines of the generated corpus.

    300 repositories created in 2016, with about 40,000 fork and star events
    up to the end of 2019, so a weekly row has more than 200 cells. Every
    third repository has unit events, the next aggregate positive deltas and
    the next signed deltas. Half the event times fall on whole hours, so many
    tie. Events per repository and repositories per follower (of 400) are
    Pareto(1) draws, capped. The event lines are in random order, and one in
    five is spelled otherwise than ``save_corpus`` writes it.

    Only ``random.Random.random``, whose stream Python keeps across versions,
    and correctly rounded float operations draw the values, so the file is
    the same on every platform; its SHA-256 is pinned beside the digests.
    """
    u = random.Random(24).random

    def below(n: int) -> int:
        return int(u() * n)

    n_repos, n_followers, n_events = 300, 400, 40_000
    hour, first, hours = 3600, 1_451_606_400, 4 * 365 * 24  # from 2016-01-01T00:00:00Z
    followers: list[list[str]] = [[] for _ in range(n_repos)]
    for f in range(n_followers):
        picked: set[int] = set()
        while len(picked) < min(n_repos, int(1.0 / (1.0 - u()))):
            picked.add(below(n_repos))
        for r in sorted(picked):
            followers[r].append(f"u{f:04d}")
    weights = [min(5_000, int(100.0 / (1.0 - u()))) for _ in range(n_repos)]
    total, repos, events = sum(weights), [], []
    for r, weight in enumerate(weights):
        created = below(365 * 24)
        totals = {"fork": 0, "star": 0}
        for _ in range(max(1, weight * n_events // total)):
            kind = "fork" if u() < 0.4 else "star"
            if r % 3 == 0:
                delta = 1
            elif r % 3 == 1:
                delta = 1 + int(u() * u() * u() * 40)
            else:
                delta = (1 + below(30)) * (-1 if u() < 0.3 else 1)
            t = first + (created + below(hours - created)) * hour
            if u() < 0.5:
                t += below(hour)
            totals[kind] += delta
            events.append({"repo_id": f"g{r:04d}", "kind": kind, "occurred_at": t,
                           "delta": delta})
        repos.append({"repo_id": f"g{r:04d}", "full_name": f"org{r % 17}/project-{r}",
                      "created_at": _stamp(first + created * hour),
                      "primary_language": (None, "Python", "Go", "C", "Rust")[below(5)],
                      "size_kb": below(100_000), "owner_followers": below(5_000),
                      "forks_total": max(0, totals["fork"]),
                      "stars_total": max(0, totals["star"]),
                      "watchers_total": below(200), "follower_ids": followers[r]})
    manifest = {"schema_version": 1,
                "captured_at": _stamp(max(e["occurred_at"] for e in events) + 86_400),
                "repo_count": n_repos, "source": "file"}
    lines = [json.dumps(obj, separators=(",", ":")) for obj in [manifest, *repos]]
    keys = [u() for _ in events]
    for i in sorted(range(len(events)), key=keys.__getitem__):
        event, style = events[i], below(20)
        t = event["occurred_at"]
        event["occurred_at"] = _stamp(t)
        if style == 0:  # spaces after separators
            lines.append(json.dumps(event))
            continue
        if style == 1:  # a UTC offset
            event["occurred_at"] = _stamp(t, offset=19_800)
        elif style == 2:  # a fraction of a second
            event["occurred_at"] = _stamp(t, fraction=".75")
        elif style == 3 and event["delta"] == 1:  # the default delta left out
            del event["delta"]
        elif style == 4:  # keys in reverse order
            event = dict(reversed(event.items()))
        lines.append(json.dumps(event, separators=(",", ":")))
    return lines


def write_generated(path: Path) -> str:
    """Write the generated corpus to ``path``; its SHA-256."""
    data = "".join(line + "\n" for line in generated_lines()).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


# The main commands, on the generated corpus.
GENERATED_RUNS = {
    "ingest": ["ingest"],
    "score": ["score"],
    "score-7d": ["score", "--interval-days", "7"],
    "rank-wtps": ["rank", "--indicator", "wtps"],
    "sweep": ["sweep"],
    "deletion-wtps": ["graph-deletion", "--measure", "wtps"],
}


def run_generated(workdir: Path, path: Path) -> dict[str, dict]:
    """``run_all`` of ``GENERATED_RUNS`` on the generated corpus at ``path``."""
    return run_all(workdir, {"generated": path}, GENERATED_RUNS, {})


# --- error goldens -------------------------------------------------------------

_MANIFEST = {"schema_version": 1, "captured_at": "2018-06-01T00:00:00Z", "repo_count": 1,
             "source": "file"}
_REPO = {"repo_id": "r1", "full_name": "o/r1", "created_at": "2018-01-01T00:00:00Z",
         "primary_language": None, "size_kb": 1, "owner_followers": 2, "forks_total": 0,
         "stars_total": 1, "watchers_total": 0, "follower_ids": ["u1"]}
_EVENT = {"repo_id": "r1", "kind": "star", "occurred_at": "2018-02-01T00:00:00Z", "delta": 1}
_DROP = object()


def _line(obj: dict, **changes) -> str:
    """``obj`` as a dataset line, with ``changes`` made (``_DROP`` deletes a key)."""
    changed = {**obj, **changes}
    return json.dumps({k: v for k, v in changed.items() if v is not _DROP},
                      separators=(",", ":"))


def _corpus(manifest: dict | None = None, repo: dict | None = None,
            event: dict | None = None) -> list[str]:
    """The valid three-line corpus, with one line's fields changed."""
    return [_line(_MANIFEST, **(manifest or {})), _line(_REPO, **(repo or {})),
            _line(_EVENT, **(event or {}))]


# Faulty inputs, one fault each, as their lines (or bytes). None of them
# is a timestamp spelling whose acceptance depends on the Python version.
ERROR_INPUTS = {
    "kind-not-string": _corpus(event={"kind": 1}),
    "kind-unknown": _corpus(event={"kind": "watch"}),
    "source-not-string": _corpus(manifest={"source": 1}),
    "source-unknown": _corpus(manifest={"source": "api"}),
    "schema-version-2": _corpus(manifest={"schema_version": 2}),
    "schema-version-string": _corpus(manifest={"schema_version": "1"}),
    "manifest-missing-key": _corpus(manifest={"repo_count": _DROP}),
    "manifest-extra-key": _corpus(manifest={"note": "x"}),
    "repo-missing-key": _corpus(repo={"size_kb": _DROP}),
    "repo-extra-key": _corpus(repo={"license": "MIT"}),
    "event-missing-key": _corpus(event={"occurred_at": _DROP}),
    "event-extra-key": _corpus(event={"actor": "u1"}),
    "event-missing-repo-id": _corpus(event={"repo_id": _DROP}),
    "timestamp-not-string": _corpus(repo={"created_at": 1514764800}),
    "timestamp-words": _corpus(event={"occurred_at": "yesterday"}),
    "timestamp-empty": _corpus(event={"occurred_at": ""}),
    "timestamp-slashes": _corpus(event={"occurred_at": "2018/02/01T00:00:00Z"}),
    "timestamp-two-digit-fields": _corpus(event={"occurred_at": "2018-2-1T00:00:00Z"}),
    "timestamp-month-13": _corpus(event={"occurred_at": "2018-13-01T00:00:00Z"}),
    "timestamp-february-30": _corpus(event={"occurred_at": "2018-02-30T00:00:00Z"}),
    "timestamp-hour-25": _corpus(event={"occurred_at": "2018-02-01T25:00:00Z"}),
    "timestamp-before-year-1": _corpus(manifest={"captured_at": "0001-01-01T00:00:00+01:00"}),
    "timestamp-after-year-9999": _corpus(event={"occurred_at": "9999-12-31T23:59:59-01:00"}),
    "timestamp-offset-24h": _corpus(event={"occurred_at": "2018-02-01T00:00:00+24:00"}),
    "timestamp-sign-after-date": _corpus(event={"occurred_at": "2018-02-01+05"}),
    "timestamp-offset-minute-60": _corpus(event={"occurred_at": "2024-08-05-21:60"}),
    "delta-true": _corpus(event={"delta": True}),
    "delta-string": _corpus(event={"delta": "1"}),
    "delta-zero": _corpus(event={"delta": 0}),
    "delta-float": _corpus(event={"delta": 1.5}),
    "count-negative": _corpus(repo={"stars_total": -1}),
    "count-string": _corpus(repo={"size_kb": "1"}),
    "count-bool": _corpus(repo={"owner_followers": False}),
    "count-2-63": _corpus(repo={"watchers_total": 2**63}),
    "repo-count-negative": _corpus(manifest={"repo_count": -1}),
    "follower-ids-string": _corpus(repo={"follower_ids": "u1"}),
    "follower-ids-number": _corpus(repo={"follower_ids": ["u1", 2]}),
    "follower-ids-null": _corpus(repo={"follower_ids": None}),
    "repo-id-empty": _corpus(repo={"repo_id": ""}),
    "repo-id-number": _corpus(repo={"repo_id": 1}),
    "full-name-null": _corpus(repo={"full_name": None}),
    "language-number": _corpus(repo={"primary_language": 3}),
    "untyped-line": [*_corpus(), '{"repo":"r1"}'],
    "manifest-off-line-1": [_line(_REPO), _line(_MANIFEST), _line(_EVENT)],
    "two-manifests": [_line(_MANIFEST), *_corpus()],
    "unknown-repo": _corpus(event={"repo_id": "r2"}),
    "event-before-creation": _corpus(event={"occurred_at": "2017-12-31T23:59:59Z"}),
    "duplicate-repo-id": [_line(_MANIFEST, repo_count=2), _line(_REPO), _line(_REPO),
                          _line(_EVENT)],
    "delta-sum-2-63": [*_corpus(event={"delta": 2**62}), _line(_EVENT, delta=-2**62)],
    "delta-past-int64": _corpus(event={"delta": 2**63}),
    "repo-count-mismatch": _corpus(manifest={"repo_count": 2}),
    "captured-before-creation": _corpus(manifest={"captured_at": "2017-01-01T00:00:00Z"}),
    "blank-line": [_line(_MANIFEST), "", _line(_REPO), _line(_EVENT)],
    "whitespace-line": [_line(_MANIFEST), _line(_REPO), " \t", _line(_EVENT)],
    "undecodable-byte": b"\n".join([_line(_MANIFEST).encode(), _line(_REPO).encode()[:-1]
                                    + b',"x\xff":1}', _line(_EVENT).encode()]) + b"\n",
    "not-an-object": [*_corpus(), "[1, 2]"],
    "json-truncated": [*_corpus(), _line(_EVENT)[:-1]],
    "json-number-too-long": [*_corpus(), '{"kind":' + "9" * 5000 + "}"],
    "empty-file": [],
    "no-repository-lines": [_line(_MANIFEST, repo_count=0)],
    "events-only": [_line(_EVENT)],
}
# Inputs whose message wording differs by Python version: their goldens pin
# the exit code and the message up to and including its "line N:".
ERROR_MESSAGE_VARIES = {"json-number-too-long"}
# The commands each faulty input runs through.
ERROR_RUNS = {"ingest": ["ingest"], "score": ["score"]}


def _pinned(name: str, stderr: str) -> str:
    """The part of ``stderr`` an error golden pins."""
    if name not in ERROR_MESSAGE_VARIES:
        return stderr
    head, message = stderr.split('"message": "', 1)
    return head + '"message": "' + message.split(":", 1)[0] + ":"


def run_errors(workdir: Path) -> dict[str, dict]:
    """Run each faulty input through ``ERROR_RUNS``, each run in its own
    folder with an empty cache; map run name to exit code and pinned stderr.

    Raises:
        AssertionError: a run left a data file, a sidecar, a temp file or a
            cache entry behind, or wrote not exactly one stderr line.
    """
    from wtps.cli import main

    results = {}
    for name, data in ERROR_INPUTS.items():
        if not isinstance(data, bytes):
            data = "".join(line + "\n" for line in data).encode("utf-8")
        for run, argv in ERROR_RUNS.items():
            folder = workdir / f"errors-{name}-{run}"
            folder.mkdir()
            path = folder / "input.jsonl"
            path.write_bytes(data)
            os.environ["XDG_CACHE_HOME"] = str(folder / "cache")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(argv[:1] + ["--input", str(path),
                                        "--output", str(folder / "out")] + argv[1:])
            assert sorted(p.name for p in folder.iterdir()) == ["input.jsonl"], name
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, (name, lines)
            results[f"{name}/{run}"] = {"exit": code, "stderr": _pinned(name, lines[0])}
    return results


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected)
    mismatched = sorted(name for name in got if got[name] != expected[name])
    assert mismatched == []


def test_generated_corpus_matches_golden_digests(tmp_path, monkeypatch):
    # Pure Python at the default ``_NUMPY_FROM``, numpy's sort, bin and
    # score kernels at 0. Each pass starts with an empty cache, so its first
    # command parses the file and every later one reads the corpus entry, as
    # the second graph-deletion reads the graph's state entry.
    from wtps import model

    expected = json.loads(GENERATED_DIGESTS.read_text(encoding="utf-8"))
    path = tmp_path / "generated.jsonl"
    assert write_generated(path) == expected["corpus"]
    for numpy_from in (model._NUMPY_FROM, 0):
        workdir = tmp_path / f"numpy-from-{numpy_from}"
        workdir.mkdir()
        monkeypatch.setattr(model, "_NUMPY_FROM", numpy_from)
        monkeypatch.setenv("XDG_CACHE_HOME", str(workdir / "cache"))
        got = run_generated(workdir, path)
        assert sorted(got) == sorted(expected["runs"])
        mismatched = sorted(name for name in got if got[name] != expected["runs"][name])
        assert mismatched == [], numpy_from


def test_faulty_inputs_match_error_goldens(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    expected = json.loads(GENERATED_DIGESTS.read_text(encoding="utf-8"))["errors"]
    got = run_errors(tmp_path)
    assert sorted(got) == sorted(expected)
    mismatched = sorted(name for name in got if got[name] != expected[name])
    assert mismatched == []


if __name__ == "__main__":
    # Each recording starts with an empty cache of its own.
    with tempfile.TemporaryDirectory() as workdir:
        os.environ["XDG_CACHE_HOME"] = str(Path(workdir) / "cache")
        if sys.argv[1:] == ["generated"]:
            path = Path(workdir) / "generated.jsonl"
            digests = {"corpus": write_generated(path), "runs": run_generated(Path(workdir), path),
                       "errors": run_errors(Path(workdir))}
        else:
            digests = run_all(Path(workdir))
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
