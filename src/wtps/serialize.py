"""Stable tabular serialization of results to CSV and JSON.

Column orders are part of the public contract and never change within a
schema version: downstream plotting and diffing rely on byte-stable output.
Floats serialize at full precision via ``repr``. The sweep, classify,
correlate and summarize columns are the fields of their result records.

Each ``*_table`` function gives its table as a header and a list of rows,
which ``to_csv`` / ``to_json`` render whole and ``write_table`` writes.
``score_table`` is the reference row form of the score table: the CLI
writes that table, by far the largest, with ``write_score_table`` straight
from the score cards, one repository at a time, to the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .scoring import GrowthLabel, RankEntry, ScoreCard

# The graph and stats record types are imported where they are used, so
# rendering a score or rank table loads neither module.
if TYPE_CHECKING:
    from .graph import DeletionSeries
    from .stats import DistributionSummary, RegressionResult, SweepEntry

SCORE_COLUMNS = ("repo_id", "indicator", "interval_index", "value")
RANK_COLUMNS = ("repo_id", "indicator", "value", "rank")
DELETION_COLUMNS = ("step", "removed_repo_id", "coefficient")

Row = list
Table = tuple[tuple[str, ...], list[Row]]


def score_table(cards: Iterable[ScoreCard]) -> Table:
    """Interval rows per repository followed by one "overall" row."""
    rows: list[Row] = []
    for card in cards:
        repo_id = card.repo_id
        rows += [[repo_id, "wtps", t, value] for t, value in enumerate(card.interval_scores)]
        rows.append([repo_id, "wtps", "overall", card.overall])
    return SCORE_COLUMNS, rows


def rank_table(entries: Iterable[RankEntry], indicator: str) -> Table:
    rows = [[e.repo_id, indicator, e.value, e.rank] for e in entries]
    return RANK_COLUMNS, rows


def _record_table(record_type: type, records: Iterable, key: str | None = None) -> Table:
    """One row per dataclass record of ``record_type``, whose fields are the
    columns, enums written by value. With ``key``, ``records`` maps the cells
    of a first column of that name to the records."""
    names = tuple(f.name for f in fields(record_type))
    cells = attrgetter(*names)

    def row(record) -> Row:
        return [v.value if isinstance(v, Enum) else v for v in cells(record)]

    if key is None:
        return names, [row(r) for r in records]
    return (key, *names), [[k, *row(r)] for k, r in records.items()]


def sweep_table(entries: Iterable[SweepEntry]) -> Table:
    from .stats import SweepEntry

    return _record_table(SweepEntry, entries)


def growth_table(labels: Iterable[GrowthLabel]) -> Table:
    return _record_table(GrowthLabel, labels)


def correlation_table(fitted: Mapping[str, RegressionResult]) -> Table:
    from .stats import RegressionResult

    return _record_table(RegressionResult, fitted, key="property")


def summary_table(summaries: Mapping[str, DistributionSummary]) -> Table:
    from .stats import DistributionSummary

    return _record_table(DistributionSummary, summaries, key="feature")


def deletion_table(series: DeletionSeries) -> Table:
    """Step 0 is the intact graph, so its removed_repo_id is empty."""
    rows: list[Row] = [[0, "", series.values[0]]]
    for step, (removed, value) in enumerate(
        zip(series.removed, series.values[1:]), start=1
    ):
        rows.append([step, removed, value])
    return DELETION_COLUMNS, rows


def to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def to_json(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records, indent=2, ensure_ascii=False) + "\n"


def write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> None:
    """Write ``to_csv(header, rows)`` or ``to_json(header, rows)`` to ``path``."""
    render = to_csv if fmt == "csv" else to_json
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write(render(header, rows))


def write_score_table(path: Path, cards: Iterable[ScoreCard], fmt: str) -> None:
    r"""Write ``to_csv(*score_table(cards))`` or ``to_json(*score_table(cards))``
    to ``path``, one repository at a time, without building the rows.

    The text between the file's framing (the CSV header line; JSON's
    brackets and the ``,\n`` between records) comes from ``_score_pieces``.
    """
    with open(path, "w", encoding="utf-8", newline="") as out:
        if fmt == "csv":
            out.write(_csv_line(SCORE_COLUMNS))
            out.writelines(_score_pieces(cards, fmt))
            return
        before = "[\n"
        for piece in _score_pieces(cards, fmt):
            out.write(before + piece)
            before = ",\n"
        out.write("[]\n" if before == "[\n" else "\n]\n")


def _score_pieces(cards: Iterable[ScoreCard], fmt: str) -> Iterator[str]:
    """The score table's rows in ``fmt``, one piece per repository.

    A repository's id is encoded once, as JSON or as the CSV cells
    ``repo_id,wtps,``, and poured with its values into the row template of
    ``_score_template``. A JSON piece's values take one ``json.dumps`` pass;
    a CSV value is its ``repr``, as ``csv`` writes a float.
    """
    for card in cards:
        values = (*card.interval_scores, card.overall)
        if fmt == "csv":
            lead = _csv_line((card.repo_id, "wtps"))[:-1] + ","
            texts = tuple(map(repr, values))
        else:
            lead = json.dumps(card.repo_id, ensure_ascii=False)
            texts = tuple(json.dumps(values, separators=("\n", ":"),
                                     ensure_ascii=False)[1:-1].split("\n"))
        template = _score_template(fmt, len(card.interval_scores))
        yield template.replace("\0", lead.replace("%", "%%")) % texts


# Every repository of a table has the same number of intervals.
@lru_cache(maxsize=2)
def _score_template(fmt: str, intervals: int) -> str:
    r"""The rows of a repository with ``intervals`` intervals and its
    "overall" row, with ``\0`` for the repository's lead and ``%s`` for
    each value."""
    labels = [*map(str, range(intervals)), '"overall"' if fmt == "json" else "overall"]
    if fmt == "csv":
        return "".join(f"\0{label},%s\n" for label in labels)
    keys = [json.dumps(name) for name in SCORE_COLUMNS]
    cells = ("\0", '"wtps"', "%s", "%%s")
    record = "  {\n" + ",\n".join(f"    {k}: {c}" for k, c in zip(keys, cells)) + "\n  }"
    return ",\n".join(record % label for label in labels)


def _csv_line(cells: Sequence) -> str:
    """One row as ``csv`` writes it, newline included."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()
