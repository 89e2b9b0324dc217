"""A mutant probe: does each named fault in the sources make its tests fail?

Each mutant replaces one exact snippet of one file under ``src`` and names
the tests that should notice. For each, the probe copies ``src`` to a
temporary folder, applies the mutant there, and runs the named tests on the
copy with ``python -m pytest -x -q`` and an empty ``XDG_CACHE_HOME``. A
mutant is "killed" when the tests fail and "survived" when they pass; one
whose snippet is no longer in its file is "stale" and is reported, not run.
A mutant marked equivalent is expected to survive: it changes the code but
not what the code does.

The module needs only the standard library. pytest does not collect it and
no test imports it. Run it from the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

It exits 1 if a mutant expected to be killed survives or an equivalent one
is killed, and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/wtps
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    equivalent: bool = False


_TIMESTAMPS = ("tests/test_timestamps.py",
               "tests/test_properties.py::test_parse_timestamp_floors_the_instant_its_fields_name")
_CACHE = ("tests/test_cache.py",)
_SCORE_FILE = ("tests/test_properties.py::test_score_file_matches_reference_rendering",
               "tests/test_cli.py::TestChunkedOutput")
_TIER1 = ("tests",)
_GOLDENS = ("tests/test_golden.py",)
_RECORDS = ("tests/test_model.py::TestRecordContract",)
_SORT = ("tests/test_properties.py::test_event_sorts_equal_tuple_sort",)
_API = ("tests/test_api.py",)

MUTANTS = (
    # dataset.parse_timestamp
    Mutant("offset microseconds dropped", "dataset.py",
           "* 1_000_000 + zus)", "* 1_000_000)", _TIMESTAMPS),
    Mutant("offset sign flipped", "dataset.py",
           '(-1 if shape[8] == "-" else 1)', '(1 if shape[8] == "-" else -1)', _TIMESTAMPS),
    Mutant("round instead of floor", "dataset.py",
           "(micro - offset) // 1_000_000", "round((micro - offset) / 1_000_000)", _TIMESTAMPS),
    Mutant("fraction ignored", "dataset.py",
           'micro = int((shape[7] or "0").ljust(6, "0")[:6])', "micro = 0", _TIMESTAMPS),
    Mutant("grammar match skipped", "dataset.py",
           "shape = _TIMESTAMP.fullmatch(raw)", "shape = _TIMESTAMP.match(raw)", _TIMESTAMPS),
    Mutant("offset bound dropped", "dataset.py",
           "    timezone(timedelta(microseconds=offset))\n", "", _TIMESTAMPS),
    Mutant("fraction cut after padding, not before", "dataset.py",
           '.ljust(6, "0")[:6]', '[:6].ljust(6, "0")', _TIMESTAMPS, equivalent=True),
    Mutant("a sign separates the date from the time", "dataset.py",
           r"(?:(?:[^\d\s+:.-]| )([0-9]{2})", "(?:.([0-9]{2})", _TIMESTAMPS),
    Mutant("a digit separates the date from the time", "dataset.py",
           r"[^\d\s+:.-]", r"[^\s+:.-]", _TIMESTAMPS),
    Mutant("a line break separates the date from the time", "dataset.py",
           r"[^\d\s+:.-]", r"[^\d+:.-]", _TIMESTAMPS),
    Mutant("a colon or a dot separates the date from the time", "dataset.py",
           r"[^\d\s+:.-]", r"[^\d\s+-]", _TIMESTAMPS),
    Mutant("offset minutes and seconds unchecked", "dataset.py",
           "    time(0, zm, zs)\n", "", _TIMESTAMPS),
    # model.record, the records' class builder, and model.replace
    Mutant("a field dropped from __eq__", "model.py",
           "return values(self) == values(other)",
           "return values(self)[1:] == values(other)[1:]", _RECORDS),
    Mutant("__setattr__ allowed", "model.py", "__setattr__=_read_only, ", "", _RECORDS),
    Mutant("replace skips __post_init__", "model.py",
           "    return type(record)(**{name: changes.pop(name, getattr(record, name))\n"
           "                           for name in fields(record)}, **changes)",
           "    copy = object.__new__(type(record))\n"
           "    _set(copy, **{name: changes.get(name, getattr(record, name))\n"
           "                  for name in fields(record)})\n"
           "    return copy", _RECORDS),
    Mutant("a field missing from the repr", "model.py",
           "for name in names)\n", "for name in names[1:])\n", _RECORDS),
    # Corpus.__post_init__'s event sorts
    Mutant("tuple sort ignores the delta", "model.py",
           "sorted(zip(times, rows, kinds, deltas))",
           "sorted(zip(times, rows, kinds, deltas), key=lambda e: e[:3])", _SORT),
    Mutant("lexsort ignores the delta", "model.py",
           "np.lexsort((delta, kind, row, time))", "np.lexsort((kind, row, time))", _SORT),
    Mutant("lexsort orders kind before row", "model.py",
           "np.lexsort((delta, kind, row, time))", "np.lexsort((delta, row, kind, time))", _SORT),
    # dataset.save_corpus, the event lines' writer
    Mutant("event line head of the other kind", "dataset.py",
           "heads[kind][row]", "heads[1 - kind][row]", _GOLDENS),
    # serialize._score_pieces, the score file's writer
    Mutant("JSON overall label unquoted", "serialize.py",
           "            labels[-1] = '\"overall\"'\n", "", _SCORE_FILE),
    Mutant("CSV lead keeps its newline", "serialize.py",
           '_csv_line((card.repo_id, "wtps"))[:-1]', '_csv_line((card.repo_id, "wtps"))',
           _SCORE_FILE),
    Mutant("JSON lead escapes non-ASCII", "serialize.py",
           "json.dumps(card.repo_id, ensure_ascii=False)", "json.dumps(card.repo_id)",
           _SCORE_FILE),
    # str and repr of a float agree on Python 3.
    Mutant("CSV value by str, not repr", "serialize.py",
           "{value!r}", "{value}", _SCORE_FILE, equivalent=True),
    # scoring, stats and graph, each against the whole tier-1
    Mutant("activity floor on the signed sum", "scoring.py",
           "if sum(map(abs, deltas)) < thresholds.min_activity:",
           "if sum(deltas) < thresholds.min_activity:", _TIER1),
    Mutant("growth bar exclusive", "scoring.py",
           "elif positive_fraction >= thresholds.growth_fraction:",
           "elif positive_fraction > thresholds.growth_fraction:", _TIER1),
    Mutant("loss bar inclusive", "scoring.py",
           "(peak - final) / peak > thresholds.loss_fraction",
           "(peak - final) / peak >= thresholds.loss_fraction", _TIER1),
    # From Python 3.12 builtin sum compensates, as fsum does on the pinned input.
    Mutant("summarize's mean by builtin sum", "stats.py",
           "mean=math.fsum(ordered) / len(ordered)", "mean=sum(ordered) / len(ordered)",
           _TIER1, equivalent=sys.version_info >= (3, 12)),
    Mutant("intercept from the sums", "stats.py",
           "intercept = mean_y - slope * mean_x",
           "intercept = math.fsum(y) / n - slope * math.fsum(x) / n", _TIER1),
    # scoring's exact kernel, whose _scaled graph's exact sums also use
    Mutant("overall as the sum of the rounded cells", "scoring.py",
           "return (sum(map(mul, forks, wf)) + sum(map(mul, stars, ws))) / one",
           "return sum(_cells(forks, stars, wf, ws, one))", _TIER1),
    Mutant("cells from float products", "scoring.py",
           "term / one for term in map(add, map(mul, forks, wf), map(mul, stars, ws))",
           "f * (a / one) + s * (b / one) for f, s, a, b in zip(forks, stars, wf, ws)", _TIER1),
    Mutant("scaled one bit short", "scoring.py",
           "return n << (shift + 1 - d.bit_length())", "return n << (shift - d.bit_length())",
           _TIER1),
    Mutant("non-finite weights accepted", "scoring.py",
           "if not isfinite(weight):", "if False:", _TIER1),
    # More bits give the same values, slower.
    Mutant("overlap shift of 60 bits", "graph.py",
           "self.shift = 53 + ", "self.shift = 60 + ", _TIER1, equivalent=True),
    # the command line's cache, wtps.cli and graph._fits
    Mutant("no digest check", "cli.py",
           "if payload.digest() != stored:", "if False:", _CACHE),
    Mutant("no size check", "cli.py",
           "\n                    or os.fstat(handle.fileno()).st_size"
           "\n                    != _CACHE_DIGEST_BYTES + len(head) + count * row):",
           "):", _CACHE),
    Mutant("no format check", "cli.py",
           "if (layout != self.layout or type(count)", "if (type(count)", _CACHE),
    Mutant("_fits skipped", "graph.py",
           "if state is None or not _fits(state, g):", "if state is None:", _CACHE),
    Mutant("no re-hash", "cli.py",
           "if entry is None or _CacheEntry(_CACHE_FORMAT, _blocks(path)).path != entry.path:",
           "if entry is None:", _CACHE),
    Mutant("the state's narrower except", "cli.py",
           "return self.entry.read()[0]\n        except _CACHE_MISSES:",
           "return self.entry.read()[0]\n        except (OSError, ValueError):", _CACHE),
    Mutant("RuntimeError dropped from the tuple", "cli.py",
           "(OSError, RuntimeError, ValueError, TypeError, EOFError)",
           "(OSError, ValueError, TypeError, EOFError)", _CACHE),
    Mutant("sources dropped from the key", "cli.py",
           "        digest.update(_sources())\n", "", _CACHE),
    Mutant("no pruning", "cli.py",
           "for stale in kept[_CACHE_ENTRIES:]:", "for stale in kept[:0]:", _CACHE),
    Mutant("graph dropped from the state's key", "cli.py",
           "[[r.repo_id, r.follower_ids] for r in self.repos]", "[]", _CACHE),
    Mutant("a library module loads the cache's hash", "dataset.py",
           "import json\n", "import hashlib\nimport json\n",
           ("tests/test_cache.py::test_library_modules_never_load_the_cache",)),
    # the command line's imports
    Mutant("the command line loads the dataset module eagerly", "cli.py",
           "from . import __version__\n",
           "from . import __version__\nfrom .dataset import load_corpus\n",
           ("tests/test_cli.py::TestImportSurface",)),
    Mutant("the command line loads the HTTP client eagerly", "cli.py",
           "from . import __version__\n",
           "from . import __version__\nimport urllib.request\n",
           ("tests/test_cli.py::TestImportSurface",)),
    # api, the REST client on urllib
    Mutant("token copied on every redirect", "api.py",
           'request.add_unredirected_header("Authorization",',
           'request.add_header("Authorization",', _API),
    Mutant("token kept on a redirect to another origin", "api.py",
           " and urlsplit(new.full_url)[:2] == urlsplit(req.full_url)[:2]", "", _API),
    Mutant("token dropped on a same-origin redirect", "api.py",
           'new.add_unredirected_header("Authorization", token)', "pass", _API),
    Mutant("redirects to ftp followed", "api.py",
           'if urlsplit(newurl).scheme not in ("http", "https"):',
           'if urlsplit(newurl).scheme not in ("http", "https", "ftp"):', _API),
    Mutant("a broken response escapes as an HTTPException", "api.py",
           "except (OSError, HTTPException) as exc:", "except OSError as exc:", _API),
    Mutant("dot segments accepted", "api.py",
           ' or {owner, name} & {".", ".."}', "", _API),
    Mutant("repository path unquoted", "api.py",
           '(quote(part, safe="") for part in split_repo_spec(owner_and_name))',
           "split_repo_spec(owner_and_name)", _API),
    Mutant("any token accepted", "api.py",
           '_check_visible_ascii("auth_token", self.auth_token)',
           '_check_string("auth_token", self.auth_token)', _API),
)


def probe(mutant: Mutant) -> str:
    """"killed", "survived", "stale" or "error (exit N)" for one mutant."""
    with tempfile.TemporaryDirectory(prefix="wtps-mutant-") as work:
        work = Path(work)
        src = work / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "wtps" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            return "stale"
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        (work / "cache").mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(work / "cache"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        # Run from the temporary folder, with the repository's settings but
        # the mutated sources first on the path, so that nothing (pytest's
        # cache, hypothesis's example database) is written to the checkout.
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-c", str(ROOT / "pyproject.toml"), "-o", f"pythonpath={src}",
                   *(str(ROOT / test) for test in mutant.tests)]
        result = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(result.returncode,
                                            f"error (exit {result.returncode})")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    unexpected = 0
    for mutant in chosen:
        outcome = probe(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        flag = "" if outcome in (expected, "stale") else "  <- expected " + expected
        unexpected += bool(flag)
        print(f"{outcome:9} {mutant.file:12} {mutant.name}{flag}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
