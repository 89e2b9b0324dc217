"""Command-line interface for reproducible batch runs.

Every command reads a JSON-lines dataset (except ``fetch``), writes a data
file plus a ``<output>.meta.json`` sidecar echoing the fully-resolved
configuration and corpus provenance, and returns a documented exit code.
Outputs are deterministic: identical inputs, flags, and seed produce
byte-identical files, because all timestamps come from the corpus rather
than the wall clock.

Exit codes:
  0  success
  1  unexpected internal error
  2  configuration error (bad flags, missing input path)
  3  dataset error (parse failures, integrity violations)
  4  API error (not found, auth, rate limiting, network failure)
  5  domain error (degenerate statistics, unknown repo, graph limits)
  6  filesystem error
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from array import array
from contextlib import contextmanager, suppress
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

try:  # hashlib's own blake2b, without the OpenSSL bindings hashlib loads
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from . import __version__
from .errors import (
    ApiError,
    ConfigError,
    DeltaOverflow,
    DuplicateRepoId,
    EmptyEventSet,
    EventBeforeCreation,
    EventOutsideGrid,
    ParseError,
    WtpsError,
)
from .model import (_COLUMN_TYPES, DEFAULT_SWEEP_DAYS, CoefficientKind, Corpus, Indicator,
                    RepoRecord, TimeGrid, bin_events, format_timestamp)

# The handlers import ``dataset``, ``scoring``, ``graph``, ``stats``,
# ``serialize`` and ``api`` where they use them, so each command loads only
# the modules it needs: a cached report command never loads ``dataset``.
if TYPE_CHECKING:
    from .graph import FollowerGraph
    from .scoring import GrowthThresholds, WeightTable

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_API = 4
EXIT_DOMAIN = 5
EXIT_IO = 6

_DATA_ERRORS = (
    ParseError,
    DeltaOverflow,
    DuplicateRepoId,
    EventBeforeCreation,
    EventOutsideGrid,
    EmptyEventSet,
)

# Exit code by error type, first match wins; any other exception exits 1.
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (_DATA_ERRORS, EXIT_DATA),
    (ApiError, EXIT_API),
    (WtpsError, EXIT_DOMAIN),
    (OSError, EXIT_IO),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argument errors take main's one error path
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wtps",
        description="Weighted popularity scoring and analysis over repository event streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="JSON-lines dataset path")
        p.add_argument("--output", required=True, help="data output path")
        p.add_argument(
            "--interval-days",
            type=int,
            default=30,
            help="time interval width in days (default 30)",
        )
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="data file format (default csv)",
        )

    p = sub.add_parser("ingest", help="validate a dataset and write its canonical form")
    add_common(p)

    p = sub.add_parser("fetch", help="fetch one repository from the REST API")
    p.add_argument("--repo", required=True, metavar="OWNER/NAME")
    p.add_argument("--output", required=True)
    p.add_argument("--interval-days", type=int, default=30)
    p.add_argument("--base-url", default="https://api.github.com")
    p.add_argument(
        "--token-env",
        default="GITHUB_TOKEN",
        help="environment variable holding the API token (default GITHUB_TOKEN)",
    )
    p.add_argument("--page-size", type=int, default=100)
    p.add_argument("--requests-per-hour", type=int, default=5000)
    p.add_argument("--retry-limit", type=int, default=2)
    p.add_argument(
        "--no-follower-ids",
        action="store_true",
        help="skip paginating the owner's follower list",
    )

    p = sub.add_parser("score", help="per-interval and overall weighted scores")
    add_common(p)
    p.add_argument(
        "--weights-one",
        action="store_true",
        help="force all weights to 1 (isolated-repository mode)",
    )

    p = sub.add_parser("rank", help="rank repositories under one indicator")
    add_common(p)
    p.add_argument(
        "--indicator",
        required=True,
        choices=[i.value for i in Indicator],
    )
    p.add_argument("--weights-one", action="store_true")

    p = sub.add_parser("correlate", help="regress repository properties on the weighted score")
    add_common(p)

    p = sub.add_parser("sweep", help="re-run scoring across interval widths and regress")
    add_common(p)
    p.add_argument(
        "--interval-days-list",
        default=",".join(str(d) for d in DEFAULT_SWEEP_DAYS),
        help="comma-separated interval widths (default 30,21,14,7)",
    )

    p = sub.add_parser("classify", help="label growth patterns per repository")
    add_common(p)
    p.add_argument("--indicator", required=True, choices=("forks", "stars"))
    p.add_argument("--min-activity", type=int, default=10)
    p.add_argument("--loss-fraction", type=float, default=0.2)
    p.add_argument("--growth-fraction", type=float, default=0.6)

    p = sub.add_parser("graph-build", help="export the repository-follower edge list")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--interval-days", type=int, default=30)
    p.add_argument("--sample-repos", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("graph-deletion", help="popularity-ordered deletion experiment")
    add_common(p)
    p.add_argument(
        "--measure",
        required=True,
        choices=[i.value for i in Indicator],
    )
    p.add_argument(
        "--coefficient",
        choices=[k.value for k in CoefficientKind],
        default=CoefficientKind.BIPARTITE_LATAPY.value,
    )
    p.add_argument("--steps", type=int, default=None, help="default min(100, repo count)")
    p.add_argument("--weights-one", action="store_true")
    p.add_argument("--sample-repos", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("summarize", help="distribution summaries of repository features")
    add_common(p)

    return parser


def _check_width(days: int, message: str) -> None:
    """Reject an interval width that is not positive (with ``message``), or
    that ``TimeGrid`` refuses (with its message)."""
    if days <= 0:
        raise ConfigError(message)
    try:
        TimeGrid(0, days, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sweep_days(args) -> list[int]:
    """The widths of ``--interval-days-list``, each checked by ``_check_width``."""
    try:
        days_list = [int(d) for d in args.interval_days_list.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(
            f"--interval-days-list must be comma-separated integers, got {args.interval_days_list!r}"
        ) from None
    nonpositive = "--interval-days-list must contain positive integers"
    if not days_list:
        raise ConfigError(nonpositive)
    for days in days_list:
        _check_width(days, nonpositive)
    return days_list


def _thresholds(args) -> GrowthThresholds:
    from .scoring import GrowthThresholds

    try:
        return GrowthThresholds(
            min_activity=args.min_activity,
            loss_fraction=args.loss_fraction,
            growth_fraction=args.growth_fraction,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_flags(args) -> None:
    """Reject every flag value that is wrong whatever the corpus, so that no
    input is read for a run that cannot succeed. Handlers keep only the
    checks that need the corpus."""
    _check_width(args.interval_days, "--interval-days must be positive")
    if getattr(args, "sample_repos", None) is not None and args.sample_repos <= 0:
        raise ConfigError("--sample-repos must be positive")
    if getattr(args, "weights_one", False):
        indicator = getattr(args, "measure", getattr(args, "indicator", "wtps"))
        if indicator != Indicator.WTPS.value:
            raise ConfigError(f"--weights-one applies to wtps only, not {indicator}")
    if getattr(args, "steps", None) is not None and args.steps < 0:
        raise ConfigError(f"--steps must be non-negative, got {args.steps}")
    if args.command == "sweep":
        _sweep_days(args)
    elif args.command == "classify":
        _thresholds(args)


def _load(args) -> Corpus:
    path = Path(args.input)
    if not path.is_file():
        raise ConfigError(f"input path does not exist: {path}")
    output = Path(args.output)
    for target in (output, _sidecar_path(output)):
        if target.exists() and target.samefile(path):
            raise ConfigError(f"output {target} would overwrite the input {path}")
    _check_flags(args)
    return load_cached(path, args.interval_days)


# The cache's entries: the format of ``load_cached``'s, with the event
# columns' layout, which keys and heads each of them; the format of
# ``_OverlapMemo``'s; the bytes of an entry's digest; the number of entries
# kept; an entry's name, its key's digest; and what keying or reading an
# entry raises for no home directory or a missing or unfit entry.
_CACHE_FORMAT = "wtps corpus cache 2 {} {}".format(
    sys.byteorder, " ".join(f"{code}{array(code).itemsize}" for code in _COLUMN_TYPES))
_STATE_FORMAT = "wtps overlap state 2"
_CACHE_DIGEST_BYTES = 32
_CACHE_ENTRIES = 16
_CACHE_NAME = re.compile(f"[0-9a-f]{{{2 * _CACHE_DIGEST_BYTES}}}")
_CACHE_MISSES = (OSError, RuntimeError, ValueError, TypeError, EOFError)


def load_cached(path: Path, interval_days: int) -> Corpus:
    """``load_corpus(path, interval_days=interval_days)``, read from the
    command line's cache of the corpora earlier calls parsed without error.

    An entry (a ``_CacheEntry``) is keyed by the bytes of the file. Its value
    is the resolved capture time and the repositories' fields, and its
    columns are the four sorted event columns, so a hit rebuilds the corpus
    on the asked-for width without parsing or sorting. An entry that cannot
    be found, read or verified is passed over: the file is parsed as without
    the cache, and the entry is written again unless the file changed while
    it was parsed. ``load_corpus`` itself never reads or writes the cache.
    """
    entry = None
    try:
        entry = _CacheEntry(_CACHE_FORMAT, _blocks(path), _COLUMN_TYPES)
        (captured_at, records), columns = entry.read()
        repos = tuple(RepoRecord(*values) for values in records)
    except _CACHE_MISSES:
        pass
    else:
        return Corpus._derive(repos, captured_at, interval_days, *columns)

    from .dataset import _REPO_KEYS, load_corpus

    corpus = load_corpus(path, interval_days=interval_days)
    try:
        if entry is None or _CacheEntry(_CACHE_FORMAT, _blocks(path)).path != entry.path:
            return corpus  # no cache, or the file changed while it was parsed
    except _CACHE_MISSES:
        return corpus
    records = [[getattr(r, name) for name in _REPO_KEYS] for r in corpus.repos]
    entry.write([corpus.captured_at, records],
                [corpus._repo, corpus._kind, corpus._time, corpus._delta])
    return corpus


def _blocks(path: Path) -> Iterator[bytes]:
    """The bytes of the file at ``path``, in 64 KiB blocks."""
    with path.open("rb") as handle:
        yield from iter(lambda: handle.read(1 << 16), b"")


@cache
def _sources() -> bytes:
    """The BLAKE2b-256 digest of this package's sources: each name, length
    and bytes."""
    package = Path(__file__).parent
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    digest = blake2b(f"{len(names)}\n".encode(), digest_size=_CACHE_DIGEST_BYTES)
    for name in names:
        source = (package / name).read_bytes()
        digest.update(f"{name} {len(source)}\n".encode())
        digest.update(source)
    return digest.digest()


class _CacheEntry:
    """One entry of the command line's cache, the home of its rules.

    Its name is the BLAKE2b-256 digest of its format, the sources of this
    package and the ``content`` blocks it is kept for. Entries live in
    ``$XDG_CACHE_HOME/wtps``, else ``~/.cache/wtps``. Every entry has one
    layout: the BLAKE2b-256 digest of the rest of the file, a JSON line
    ``[format, count, value]``, then ``count`` items of each ``array`` type
    in ``types``, one column after another. A parsed corpus keeps its
    capture time and repositories in the value and its event columns after
    it; ``graph-deletion``'s intact-graph state is all value, with no
    columns. Both kinds share the folder and its limit of the newest
    ``_CACHE_ENTRIES``.

    Raises:
        OSError: a source or a content block cannot be read.
        RuntimeError: there is no home directory.
    """

    def __init__(self, layout: str, content: Iterable[bytes], types: str = "") -> None:
        home = os.environ.get("XDG_CACHE_HOME", "")
        folder = (Path(home) if os.path.isabs(home) else Path.home() / ".cache") / "wtps"
        digest = blake2b(f"{layout}\n".encode(), digest_size=_CACHE_DIGEST_BYTES)
        digest.update(_sources())
        for block in content:
            digest.update(block)
        self.layout, self.types = layout, types
        self.path = folder / digest.hexdigest()

    def read(self) -> tuple[object, list[array]]:
        """The entry's value and columns. Its format and size are checked
        before a column is read, and its digest before they are returned.

        Raises:
            One of ``_CACHE_MISSES``: the entry is missing, damaged or of
                another format.
        """
        with self.path.open("rb") as handle:
            stored = handle.read(_CACHE_DIGEST_BYTES)
            head = handle.readline()
            layout, count, value = json.loads(head)
            row = sum(array(code).itemsize for code in self.types)
            if (layout != self.layout or type(count) is not int
                    or os.fstat(handle.fileno()).st_size
                    != _CACHE_DIGEST_BYTES + len(head) + count * row):
                raise ValueError("not an entry of this format")
            payload = blake2b(head, digest_size=_CACHE_DIGEST_BYTES)
            columns = []
            for code in self.types:
                column = array(code)
                column.fromfile(handle, count)
                payload.update(column)
                columns.append(column)
        if payload.digest() != stored:
            raise ValueError("entry digest mismatch")
        return value, columns

    def write(self, value, columns: Sequence[array] = ()) -> None:
        """Store ``value`` and ``columns``, of equal length and of the types
        in ``types``, through a temp file and ``os.replace``, then delete all
        but the newest entries. Other files in the folder, such as other
        writers' temp files, are left alone. An entry that cannot be written
        is passed over."""
        count = len(columns[0]) if columns else 0
        head = (json.dumps([self.layout, count, value], separators=(",", ":")) + "\n").encode()
        digest = blake2b(head, digest_size=_CACHE_DIGEST_BYTES)
        for column in columns:
            digest.update(column)
        temp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        try:
            self.path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            with temp.open("xb") as handle:
                handle.write(digest.digest())
                handle.write(head)
                for column in columns:
                    handle.write(column)
            os.replace(temp, self.path)
            kept = sorted((e for e in os.scandir(self.path.parent)
                           if _CACHE_NAME.fullmatch(e.name)),
                          key=lambda e: e.stat().st_mtime_ns, reverse=True)
            for stale in kept[_CACHE_ENTRIES:]:
                os.unlink(stale.path)
        except OSError:
            with suppress(OSError):
                temp.unlink(missing_ok=True)


class _OverlapMemo:
    """The intact-graph state of ``graph._Overlap`` for the graph of
    ``repos``, kept in the command line's cache for ``graph-deletion``.

    The entry is keyed by each repository's id and follower ids; its value
    is the state, and it has no columns. ``load`` computes the key and reads
    the entry, and ``store`` writes the entry that ``load`` did not find.
    """

    def __init__(self, repos: tuple[RepoRecord, ...]) -> None:
        self.repos = repos
        self.entry: _CacheEntry | None = None

    def load(self) -> list | None:
        """The stored state, or None if no entry reads and verifies."""
        try:
            graph = json.dumps([[r.repo_id, r.follower_ids] for r in self.repos])
            self.entry = _CacheEntry(_STATE_FORMAT, [graph.encode()])
            return self.entry.read()[0]
        except _CACHE_MISSES:
            return None

    def store(self, state: list) -> None:
        if self.entry is not None:
            self.entry.write(state)


def _sidecar_path(output: Path) -> Path:
    return output.with_name(output.name + ".meta.json")


@contextmanager
def _staged_outputs(output: Path):
    """Yield temporary paths for the data file and its sidecar.

    Both live in the output's directory and are moved into place with
    ``os.replace`` only after the block has written both. On any failure the
    temporary files are removed, and a data file already moved into place is
    removed too, so a failed command leaves no partial output.
    """
    targets = (output, _sidecar_path(output))
    staged = tuple(t.with_name(f".{t.name}.{os.getpid()}.tmp") for t in targets)
    moved: list[Path] = []
    try:
        yield staged
        for temp, target in zip(staged, targets):
            os.replace(temp, target)
            moved.append(target)
    except BaseException:
        for path in (*staged, *moved):
            path.unlink(missing_ok=True)
        raise


def _write_sidecar(path: Path, args, corpus: Corpus, extra: dict) -> None:
    """The run's configuration, corpus provenance and ``extra`` blocks."""
    sidecar = {
        "schema_version": 1,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "command"},
        "provenance": {
            "input": getattr(args, "input", None),
            "captured_at": format_timestamp(corpus.captured_at),
            "repo_count": len(corpus.repos),
            "event_count": corpus.event_count,
            "grid": {
                "epoch": format_timestamp(corpus.grid.epoch),
                "interval_days": corpus.grid.interval_days,
                "interval_count": corpus.grid.interval_count,
            },
        },
        **extra,
    }
    text = json.dumps(sidecar, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    path.write_text(text, encoding="utf-8", newline="")


def _unit_weights(args, corpus: Corpus) -> WeightTable | None:
    """Unit weights under ``--weights-one``; None leaves community weights."""
    from .scoring import unit_weights

    return unit_weights(corpus.grid.interval_count) if args.weights_one else None


def _graph_block(graph: FollowerGraph) -> dict:
    return {
        "repo_nodes": len(graph.repo_nodes),
        "follower_nodes": len(graph.follower_nodes),
        "edges": graph.edge_count,
    }


def _cmd_ingest(args) -> int:
    from .dataset import DatasetSource, save_corpus

    corpus = _load(args)
    with _staged_outputs(Path(args.output)) as (data_path, sidecar_path):
        manifest = save_corpus(corpus, data_path, source=DatasetSource.FILE)
        _write_sidecar(sidecar_path, args, corpus, {"manifest": manifest.to_json_dict()})
    return EXIT_OK


def _cmd_fetch(args) -> int:
    from .api import ApiClientConfig, fetch_repo, split_repo_spec
    from .dataset import DatasetSource, save_corpus

    _check_flags(args)
    try:
        split_repo_spec(args.repo)
        config = ApiClientConfig(
            base_url=args.base_url,
            auth_token=os.environ.get(args.token_env),
            requests_per_hour_cap=args.requests_per_hour,
            page_size=args.page_size,
            retry_limit=args.retry_limit,
            fetch_follower_ids=not args.no_follower_ids,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    result = fetch_repo(config, args.repo)
    if result.truncated_history:
        print(
            json.dumps({"warning": "TruncatedHistory",
                        "message": f"timeline for {args.repo} is shorter than snapshot counts"}),
            file=sys.stderr,
        )
    corpus = Corpus.build([result.repo], result.events, interval_days=args.interval_days)
    with _staged_outputs(Path(args.output)) as (data_path, sidecar_path):
        save_corpus(corpus, data_path, source=DatasetSource.LIVE_API)
        _write_sidecar(sidecar_path, args, corpus,
                       {"truncated_history": result.truncated_history})
    return EXIT_OK


def _cmd_score(args, corpus: Corpus):
    from .scoring import compute_weights, score_all

    binned = bin_events(corpus)
    weights = _unit_weights(args, corpus) or compute_weights(binned)
    return score_all(binned, weights), {
        "weights": {
            "fork_weights": list(weights.fork_weights),
            "star_weights": list(weights.star_weights),
        },
    }


def _cmd_rank(args, corpus: Corpus):
    from .scoring import rank
    from .serialize import rank_table

    indicator = Indicator(args.indicator)
    entries = rank(corpus, indicator, weights=_unit_weights(args, corpus))
    return rank_table(entries, indicator.value), {}


def _cmd_correlate(args, corpus: Corpus):
    from .serialize import correlation_table
    from .stats import correlate

    fitted, skipped = correlate(corpus)
    return correlation_table(fitted), {
        "skipped": [{"property": p, "reason": r} for p, r in skipped.items()],
    }


def _cmd_sweep(args, corpus: Corpus):
    from .serialize import sweep_table
    from .stats import interval_sweep

    return sweep_table(interval_sweep(corpus, _sweep_days(args))), {}


def _cmd_classify(args, corpus: Corpus):
    from .scoring import classify_growth
    from .serialize import growth_table

    thresholds = _thresholds(args)
    binned = bin_events(corpus)
    indicator = Indicator(args.indicator)
    labels = [
        classify_growth(binned, rid, indicator, thresholds)
        for rid in corpus.repo_ids
    ]
    return growth_table(labels), {}


def _cmd_graph_build(args, corpus: Corpus):
    from .graph import build_graph, format_edge_list

    graph = build_graph(corpus)
    return format_edge_list(graph), {"graph": _graph_block(graph)}


def _cmd_graph_deletion(args, corpus: Corpus):
    from .graph import _remember, build_graph, deletion_experiment, scores_for_measure
    from .serialize import deletion_table

    measure = Indicator(args.measure)
    kind = CoefficientKind(args.coefficient)
    weights = _unit_weights(args, corpus)
    steps = args.steps if args.steps is not None else min(100, len(corpus.repos))
    if steps > len(corpus.repos):
        raise ConfigError(
            f"--steps {steps} exceeds repository count {len(corpus.repos)}"
        )
    scores = scores_for_measure(corpus, measure, weights=weights)
    # The intact graph's measurement comes from the cache when an earlier
    # run on the same graph stored it.
    graph = _remember(build_graph(corpus), _OverlapMemo(corpus.repos))
    series = deletion_experiment(graph, scores, steps, kind=kind, measure=measure)
    return deletion_table(series), {
        "series": series.to_json_dict(),
        "graph": _graph_block(graph),
    }


def _cmd_summarize(args, corpus: Corpus):
    from .serialize import summary_table
    from .stats import repo_features, summarize

    summaries = {
        name: summarize(values) for name, values in repo_features(corpus).items()
    }
    return summary_table(summaries), {}


_REPORTS = {
    "score": _cmd_score,
    "rank": _cmd_rank,
    "correlate": _cmd_correlate,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "graph-build": _cmd_graph_build,
    "graph-deletion": _cmd_graph_deletion,
    "summarize": _cmd_summarize,
}


def _run_report(args, handler) -> int:
    """Run one report command: load the corpus, draw the ``--sample-repos``
    sample where the command has one, call ``handler(args, corpus)`` for the
    command's table (or graph-build's text, or score's cards) and the
    sidecar's extra blocks, and write the data file and the sidecar. A table
    is rendered whole in ``--format`` by ``serialize.write_table``; score's
    cards are streamed one repository at a time by
    ``serialize.write_score_table``."""
    corpus = _load(args)
    sample = getattr(args, "sample_repos", None)
    if sample is not None and sample < len(corpus.repos):
        rng = random.Random(args.seed)
        corpus = corpus.subset(rng.sample(sorted(corpus.repo_ids), sample))
    result, extra = handler(args, corpus)
    with _staged_outputs(Path(args.output)) as (data_path, sidecar_path):
        if isinstance(result, str):
            data_path.write_text(result, encoding="utf-8", newline="")
        elif isinstance(result, tuple):
            from .serialize import write_table

            write_table(data_path, *result, args.format)
        else:
            from .serialize import write_score_table

            write_score_table(data_path, result, args.format)
        _write_sidecar(sidecar_path, args, corpus, extra)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Every argument lands in the UTF-8 sidecar; argv bytes that are not
        # UTF-8 arrive as lone surrogates and could never be written there.
        for name, value in vars(args).items():
            if isinstance(value, str):
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    flag = "--" + name.replace("_", "-")
                    raise ConfigError(f"{flag} is not valid UTF-8: {value!r}") from None
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
        return _run_report(args, _REPORTS[args.command])
    except SystemExit as exc:  # --help and --version
        return exc.code
    except Exception as exc:  # noqa: BLE001 - boundary translates to exit codes
        code = next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), EXIT_UNEXPECTED)
        print(
            json.dumps({
                "error": type(exc).__name__,
                "exit_code": code,
                "message": str(exc),
            }),
            file=sys.stderr,
        )
        return code


if __name__ == "__main__":
    raise SystemExit(main())
