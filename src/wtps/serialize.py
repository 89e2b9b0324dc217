"""Stable tabular serialization of results to CSV and JSON.

Column orders are part of the public contract and never change within a
schema version: downstream plotting and diffing rely on byte-stable output.
Floats serialize at full precision via ``repr``. The sweep, classify,
correlate and summarize columns are the fields of their result records.

Each ``*_table`` function gives its table as a header and a list of rows,
which ``to_csv`` / ``to_json`` render whole and ``write_table`` writes a
slice at a time. ``score_table`` is the reference row form of the score
table: the CLI writes that table, by far the largest, with
``write_score_table`` straight from the score cards, one repository at a
time, to the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from enum import Enum
from functools import lru_cache
from itertools import chain
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
    """The score table's rows in ``fmt``, one piece per repository, or per
    ``_CHUNK_ROWS`` rows of a repository that has more.

    A repository's id is encoded once, as JSON or as the CSV cells
    ``repo_id,wtps,``, and poured with its values into the row template of
    ``_score_template``. A JSON piece's values take one ``json.dumps`` pass;
    a CSV value is its ``repr``, as ``csv`` writes a float.
    """
    for card in cards:
        if fmt == "csv":
            lead = _csv_line((card.repo_id, "wtps"))[:-1] + ","
        else:
            lead = json.dumps(card.repo_id, ensure_ascii=False)
        lead = lead.replace("%", "%%")
        scores = card.interval_scores
        values = (*scores, card.overall)
        for start in range(0, len(values), _CHUNK_ROWS):
            block = values[start:start + _CHUNK_ROWS]
            if fmt == "csv":
                texts = tuple(map(repr, block))
            else:
                texts = tuple(json.dumps(block, separators=("\n", ":"),
                                         ensure_ascii=False)[1:-1].split("\n"))
            template = _score_template(fmt, len(scores), start, start + len(block))
            yield template.replace("\0", lead) % texts


# A wider repository's pieces each take their own template, so only a few
# are kept: the cache holds a few slices' text, not a whole repository's.
@lru_cache(maxsize=8)
def _score_template(fmt: str, intervals: int, start: int, stop: int) -> str:
    r"""Rows ``start``..``stop - 1`` of a repository with ``intervals``
    intervals (row ``intervals`` is its "overall" row), with ``\0`` for the
    repository's lead and ``%s`` for each value."""
    labels = [str(t) for t in range(start, min(stop, intervals))]
    if stop > intervals:
        labels.append('"overall"' if fmt == "json" else "overall")
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
