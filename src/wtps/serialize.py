"""Stable tabular serialization of results to CSV and JSON.

Column orders are part of the public contract and never change within a
schema version: downstream plotting and diffing rely on byte-stable output.
Floats serialize at full precision via ``repr``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .graph import DeletionSeries
from .scoring import GrowthLabel, RankEntry, ScoreCard
from .stats import DistributionSummary, RegressionResult, SweepEntry

SCORE_COLUMNS = ("repo_id", "indicator", "interval_index", "value")
RANK_COLUMNS = ("repo_id", "indicator", "value", "rank")
SWEEP_COLUMNS = (
    "indicator", "interval_days", "slope", "intercept", "pearson_r", "sample_count",
)
GROWTH_COLUMNS = (
    "repo_id", "indicator", "pattern",
    "peak_cumulative", "final_cumulative", "positive_fraction",
)
CORRELATION_COLUMNS = (
    "property", "slope", "intercept", "pearson_r", "sample_count",
)
SUMMARY_COLUMNS = (
    "feature", "minimum", "first_quartile", "median", "third_quartile",
    "maximum", "mean", "outlier_count",
)
DELETION_COLUMNS = ("step", "removed_repo_id", "coefficient")

Row = list
Table = tuple[tuple[str, ...], list[Row]]


def score_table(cards: Iterable[ScoreCard]) -> Table:
    """Interval rows per repository followed by one "overall" row."""
    rows: list[Row] = []
    for card in cards:
        for t, value in enumerate(card.interval_scores):
            rows.append([card.repo_id, "wtps", t, value])
        rows.append([card.repo_id, "wtps", "overall", card.overall])
    return SCORE_COLUMNS, rows


def rank_table(entries: Iterable[RankEntry], indicator: str) -> Table:
    rows = [[e.repo_id, indicator, e.value, e.rank] for e in entries]
    return RANK_COLUMNS, rows


def _line_cells(r: RegressionResult) -> list:
    """The cells every regression row ends with."""
    return [r.slope, r.intercept, r.pearson_r, r.sample_count]


def sweep_table(entries: Iterable[SweepEntry]) -> Table:
    rows = [[e.indicator.value, e.interval_days, *_line_cells(e.result)] for e in entries]
    return SWEEP_COLUMNS, rows


def growth_table(labels: Iterable[GrowthLabel]) -> Table:
    rows = [
        [
            label.repo_id,
            label.indicator.value,
            label.pattern.value,
            label.peak_cumulative,
            label.final_cumulative,
            label.positive_fraction,
        ]
        for label in labels
    ]
    return GROWTH_COLUMNS, rows


def correlation_table(fitted: Mapping[str, RegressionResult]) -> Table:
    rows = [[prop, *_line_cells(result)] for prop, result in fitted.items()]
    return CORRELATION_COLUMNS, rows


def summary_table(summaries: Mapping[str, DistributionSummary]) -> Table:
    rows = [
        [
            feature,
            s.minimum,
            s.first_quartile,
            s.median,
            s.third_quartile,
            s.maximum,
            s.mean,
            s.outlier_count,
        ]
        for feature, s in summaries.items()
    ]
    return SUMMARY_COLUMNS, rows


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
    r"""The records as ``json.dumps(records, indent=2, ensure_ascii=False)``.

    ``indent`` makes ``json`` fall back to its pure-Python encoder, so the
    text comes from one pass of the C encoder with the field separator of
    the indented form; every raw newline in it is a separator (strings
    escape theirs), so each record boundary reads ``},\n    {`` and is
    rewritten to the indented layout.
    """
    records = [dict(zip(header, row)) for row in rows]
    if not records or not all(records):
        return json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    flat = json.dumps(records, separators=(",\n    ", ": "), ensure_ascii=False)
    body = flat[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    return f"[\n  {{\n    {body}\n  }}\n]\n"


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
