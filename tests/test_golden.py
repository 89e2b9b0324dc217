"""Golden outputs: every file-based command on both shipped samples.

Each run's exit code and the SHA-256 digests of its data file and sidecar are
compared with ``golden_digests.json``. Sidecar path fields (``config.input``,
``config.output``, ``provenance.input``) are masked before hashing, so the
digests do not depend on where the test runs. To re-record the digests after
an intended output change, run

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
DIGESTS = Path(__file__).with_name("golden_digests.json")
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


def run_all(workdir: Path) -> dict[str, dict]:
    """Run every golden command; map run name to exit code and digests."""
    from wtps.cli import main

    runs = {}
    for sample in SAMPLES:
        for fmt in ("csv", "json"):
            for name, argv in FORMATTED_RUNS.items():
                runs[f"{sample}/{fmt}/{name}"] = argv + ["--format", fmt]
        for name, argv in PLAIN_RUNS.items():
            runs[f"{sample}/{name}"] = argv
    results = {}
    for run_name, argv in runs.items():
        sample = run_name.split("/")[0]
        output = workdir / run_name.replace("/", "-")
        sidecar = output.with_name(output.name + ".meta.json")
        code = main(argv[:1] + ["--input", str(DATA_DIR / f"{sample}.jsonl"),
                                "--output", str(output)] + argv[1:])
        results[run_name] = {
            "exit": code,
            "data": _digest(output),
            "meta": _masked_sidecar_digest(sidecar) if sidecar.exists() else None,
        }
    return results


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected)
    mismatched = sorted(name for name in got if got[name] != expected[name])
    assert mismatched == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = run_all(Path(workdir))
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
