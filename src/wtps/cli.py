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
  4  API error (not found, auth, rate limiting)
  5  domain error (degenerate statistics, unknown repo, graph limits)
  6  filesystem error
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .dataset import (
    DatasetSource,
    format_timestamp,
    load_corpus,
    save_corpus,
)
from .errors import (
    ApiError,
    ConfigError,
    DegenerateInput,
    DeltaOverflow,
    DuplicateRepoId,
    EmptyEventSet,
    EventBeforeCreation,
    EventOutsideGrid,
    ParseError,
    WtpsError,
)
from .graph import (
    CoefficientKind,
    FollowerGraph,
    build_graph,
    deletion_experiment,
    format_edge_list,
    scores_for_measure,
)
from .model import Corpus, bin_events
from .scoring import (
    GrowthThresholds,
    Indicator,
    WeightTable,
    classify_growth,
    compute_weights,
    rank,
    score_all,
    unit_weights,
)
from .serialize import (
    correlation_table,
    deletion_table,
    growth_table,
    rank_table,
    score_table,
    summary_table,
    sweep_table,
    to_csv,
    to_json,
)
from .stats import (
    DEFAULT_SWEEP_DAYS,
    interval_sweep,
    ols_line,
    repo_features,
    summarize,
)

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

_PROPERTY_FIELDS = (
    "forks_total",
    "stars_total",
    "watchers_total",
    "age_days",
    "owner_followers",
    "size_kb",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtps",
        description="Weighted popularity scoring and analysis over repository event streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
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


def _load(args) -> Corpus:
    path = Path(args.input)
    if not path.is_file():
        raise ConfigError(f"input path does not exist: {path}")
    output = Path(args.output)
    for target in (output, _sidecar_path(output)):
        if target.exists() and target.samefile(path):
            raise ConfigError(f"output {target} would overwrite the input {path}")
    if args.interval_days <= 0:
        raise ConfigError("--interval-days must be positive")
    return load_corpus(path, interval_days=args.interval_days)


def _sample_corpus(corpus: Corpus, sample_repos: int | None, seed: int) -> Corpus:
    """Uniform repository sample (without replacement), keeping their events."""
    if sample_repos is None or sample_repos >= len(corpus.repos):
        return corpus
    if sample_repos <= 0:
        raise ConfigError("--sample-repos must be positive")
    rng = random.Random(seed)
    return corpus.subset(rng.sample(sorted(corpus.repo_ids), sample_repos))


def _provenance(corpus: Corpus, input_path: str | None) -> dict:
    return {
        "input": input_path,
        "captured_at": format_timestamp(corpus.captured_at),
        "repo_count": len(corpus.repos),
        "event_count": len(corpus.event_time),
        "grid": {
            "epoch": format_timestamp(corpus.grid.epoch),
            "interval_days": corpus.grid.interval_days,
            "interval_count": corpus.grid.interval_count,
        },
    }


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


def _write_sidecar(path: Path, sidecar: dict) -> None:
    text = json.dumps(sidecar, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    path.write_text(text, encoding="utf-8", newline="")


def _write_outputs(args, data_text: str, sidecar: dict) -> None:
    with _staged_outputs(Path(args.output)) as (data_path, sidecar_path):
        data_path.write_text(data_text, encoding="utf-8", newline="")
        _write_sidecar(sidecar_path, sidecar)


def _render(args, header, rows) -> str:
    if args.format == "json":
        return to_json(header, rows)
    return to_csv(header, rows)


def _sidecar(args, command: str, corpus: Corpus, extra: dict | None = None) -> dict:
    sidecar = {
        "schema_version": 1,
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k != "command"},
        "provenance": _provenance(corpus, getattr(args, "input", None)),
    }
    if extra:
        sidecar.update(extra)
    return sidecar


def _unit_weights(args, corpus: Corpus, indicator: Indicator) -> WeightTable | None:
    """Unit weights under ``--weights-one``; None leaves community weights."""
    if not args.weights_one:
        return None
    if indicator is not Indicator.WTPS:
        raise ConfigError(f"--weights-one applies to wtps only, not {indicator.value}")
    return unit_weights(corpus.grid.interval_count)


def _graph_block(graph: FollowerGraph) -> dict:
    return {
        "repo_nodes": len(graph.repo_nodes),
        "follower_nodes": len(graph.follower_nodes),
        "edges": graph.edge_count,
    }


def _cmd_ingest(args) -> int:
    corpus = _load(args)
    with _staged_outputs(Path(args.output)) as (data_path, sidecar_path):
        manifest = save_corpus(corpus, data_path, source=DatasetSource.FILE)
        sidecar = _sidecar(args, "ingest", corpus, {"manifest": manifest.to_json_dict()})
        _write_sidecar(sidecar_path, sidecar)
    return EXIT_OK


def _cmd_fetch(args) -> int:
    # Imported here so that only fetch loads the HTTP client library.
    from .api import ApiClientConfig, fetch_repo

    if args.interval_days <= 0:
        raise ConfigError("--interval-days must be positive")
    if "/" not in args.repo:
        raise ConfigError(f"--repo expects OWNER/NAME, got {args.repo!r}")
    try:
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
        sidecar = _sidecar(args, "fetch", corpus,
                           {"truncated_history": result.truncated_history})
        _write_sidecar(sidecar_path, sidecar)
    return EXIT_OK


def _cmd_score(args) -> int:
    corpus = _load(args)
    binned = bin_events(corpus)
    weights = _unit_weights(args, corpus, Indicator.WTPS) or compute_weights(binned)
    cards = score_all(binned, weights)
    header, rows = score_table(cards)
    sidecar = _sidecar(args, "score", corpus, {
        "weights": {
            "fork_weights": list(weights.fork_weights),
            "star_weights": list(weights.star_weights),
        },
    })
    _write_outputs(args, _render(args, header, rows), sidecar)
    return EXIT_OK


def _cmd_rank(args) -> int:
    corpus = _load(args)
    indicator = Indicator(args.indicator)
    entries = rank(corpus, indicator, weights=_unit_weights(args, corpus, indicator))
    header, rows = rank_table(entries, indicator.value)
    _write_outputs(args, _render(args, header, rows), _sidecar(args, "rank", corpus))
    return EXIT_OK


def _cmd_correlate(args) -> int:
    corpus = _load(args)
    binned = bin_events(corpus)
    weights = compute_weights(binned)
    scores = [card.overall for card in score_all(binned, weights)]
    columns = repo_features(corpus)
    rows_in = []
    skipped = []
    for prop in _PROPERTY_FIELDS:
        try:
            result = ols_line(scores, columns[prop])
        except DegenerateInput as exc:
            skipped.append({"property": prop, "reason": str(exc)})
            continue
        rows_in.append({
            "property": prop,
            "slope": result.slope,
            "intercept": result.intercept,
            "pearson_r": result.pearson_r,
            "sample_count": result.sample_count,
        })
    if not rows_in:
        raise DegenerateInput(
            "no repository property admits a correlation with the score"
        )
    header, rows = correlation_table(rows_in)
    sidecar = _sidecar(args, "correlate", corpus, {"skipped": skipped})
    _write_outputs(args, _render(args, header, rows), sidecar)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    corpus = _load(args)
    try:
        days_list = [int(d) for d in args.interval_days_list.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(
            f"--interval-days-list must be comma-separated integers, got {args.interval_days_list!r}"
        ) from None
    if not days_list or any(d <= 0 for d in days_list):
        raise ConfigError("--interval-days-list must contain positive integers")
    entries = interval_sweep(corpus, days_list)
    header, rows = sweep_table(entries)
    _write_outputs(args, _render(args, header, rows), _sidecar(args, "sweep", corpus))
    return EXIT_OK


def _cmd_classify(args) -> int:
    corpus = _load(args)
    thresholds = GrowthThresholds(
        min_activity=args.min_activity,
        loss_fraction=args.loss_fraction,
        growth_fraction=args.growth_fraction,
    )
    binned = bin_events(corpus)
    indicator = Indicator(args.indicator)
    labels = [
        classify_growth(binned, rid, indicator, thresholds)
        for rid in corpus.repo_ids
    ]
    header, rows = growth_table(labels)
    _write_outputs(args, _render(args, header, rows), _sidecar(args, "classify", corpus))
    return EXIT_OK


def _cmd_graph_build(args) -> int:
    corpus = _load(args)
    corpus = _sample_corpus(corpus, args.sample_repos, args.seed)
    graph = build_graph(corpus)
    sidecar = _sidecar(args, "graph-build", corpus, {"graph": _graph_block(graph)})
    _write_outputs(args, format_edge_list(graph), sidecar)
    return EXIT_OK


def _cmd_graph_deletion(args) -> int:
    corpus = _load(args)
    corpus = _sample_corpus(corpus, args.sample_repos, args.seed)
    measure = Indicator(args.measure)
    kind = CoefficientKind(args.coefficient)
    weights = _unit_weights(args, corpus, measure)
    scores = scores_for_measure(corpus, measure, weights=weights)
    steps = args.steps if args.steps is not None else min(100, len(corpus.repos))
    if steps < 0:
        raise ConfigError(f"--steps must be non-negative, got {steps}")
    if steps > len(corpus.repos):
        raise ConfigError(
            f"--steps {steps} exceeds repository count {len(corpus.repos)}"
        )
    graph = build_graph(corpus)
    series = deletion_experiment(graph, scores, steps, kind=kind, measure=measure)
    header, rows = deletion_table(series)
    sidecar = _sidecar(args, "graph-deletion", corpus, {
        "series": series.to_json_dict(),
        "graph": _graph_block(graph),
    })
    _write_outputs(args, _render(args, header, rows), sidecar)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    corpus = _load(args)
    summaries = {
        name: summarize(values) for name, values in repo_features(corpus).items()
    }
    header, rows = summary_table(summaries)
    _write_outputs(args, _render(args, header, rows), _sidecar(args, "summarize", corpus))
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "fetch": _cmd_fetch,
    "score": _cmd_score,
    "rank": _cmd_rank,
    "correlate": _cmd_correlate,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "graph-build": _cmd_graph_build,
    "graph-deletion": _cmd_graph_deletion,
    "summarize": _cmd_summarize,
}


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, _DATA_ERRORS):
        return EXIT_DATA
    if isinstance(exc, ApiError):
        return EXIT_API
    if isinstance(exc, WtpsError):
        return EXIT_DOMAIN
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_UNEXPECTED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - boundary translates to exit codes
        code = _exit_code_for(exc)
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
