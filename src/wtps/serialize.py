"""Stable tabular serialization of results to CSV and JSON.

Column orders are part of the public contract and never change within a
schema version: downstream plotting and diffing rely on byte-stable output.
Floats serialize at full precision via ``repr``. The sweep, classify,
correlate and summarize columns are the fields of their result records.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from enum import Enum
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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
    """The records as ``json.dumps(records, indent=2, ensure_ascii=False)``.

    ``indent`` makes ``json`` fall back to its pure-Python encoder, so a
    regular table is rendered by one pass of the C encoder over its cells,
    separated by raw newlines (no scalar's encoding holds one), poured into
    one record template built from the header. A table that is not regular
    (no header, a repeated key, a row of another length, a cell that is a
    list or an object, or no rows) goes through ``json.dumps`` itself.
    """
    rows = list(rows)
    keys = tuple(header)
    if rows and keys and len(set(keys)) == len(keys) and set(map(len, rows)) == {len(keys)}:
        flat = json.dumps(list(chain.from_iterable(rows)), separators=("\n", ":"),
                          ensure_ascii=False)
        # A list or object cell opens with "[" or "{" and would need the
        # indented layout inside it.
        if flat[1] not in "[{" and "\n[" not in flat and "\n{" not in flat:
            # Each key as json writes it, from its '"<key>":0' item.
            names = json.dumps(dict.fromkeys(keys, 0), separators=("\n", ":"),
                               ensure_ascii=False)[1:-1].replace("%", "%%").split("\n")
            record = "  {\n    " + ",\n    ".join(n[:-1] + " %s" for n in names) + "\n  }"
            body = ",\n".join([record] * len(rows)) % tuple(flat[1:-1].split("\n"))
            return f"[\n{body}\n]\n"
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records, indent=2, ensure_ascii=False) + "\n"


# Rows per call of to_csv / to_json when write_table writes a table.
_CHUNK_ROWS = 2048


def write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> None:
    r"""Write ``to_csv(header, rows)`` or ``to_json(header, rows)`` to
    ``path``, rendering ``_CHUNK_ROWS`` rows at a time, so the text held in
    memory is one slice whatever the size of the table.

    A later CSV slice passes its first row in the header's place, so it
    renders no header line of its own. A JSON slice renders as
    ``[\n  <records>\n]\n``; the file joins the slices' records with
    ``,\n`` inside one pair of brackets.
    """
    with open(path, "w", encoding="utf-8", newline="") as out:
        if fmt == "csv":
            out.write(to_csv(header, rows[:_CHUNK_ROWS]))
            for start in range(_CHUNK_ROWS, len(rows), _CHUNK_ROWS):
                out.write(to_csv(rows[start], rows[start + 1:start + _CHUNK_ROWS]))
        elif not rows:
            out.write(to_json(header, rows))
        else:
            for start in range(0, len(rows), _CHUNK_ROWS):
                text = to_json(header, rows[start:start + _CHUNK_ROWS])
                out.write(",\n" + text[2:-3] if start else text[:-3])
            out.write("\n]\n")
