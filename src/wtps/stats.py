"""Pearson correlation, least-squares lines, interval-width sweeps, and
distribution summaries.

Correlation and regression are computed from centered sums with ``math.fsum``
for accuracy; constant input raises :class:`DegenerateInput` rather than
returning a silent zero that would corrupt correlation reports.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateInput, EmptyInput, LengthMismatch
from .model import COUNT_FIELDS, DEFAULT_SWEEP_DAYS, SECONDS_PER_DAY, Corpus
from .scoring import Indicator, SNAPSHOT_FIELDS, indicator_values

# The repository features, ``COUNT_FIELDS`` and "age_days", in the report
# order of ``repo_features`` (and so of summarize) and of ``correlate``.
_SUMMARY_FIELDS = ("forks_total", "stars_total", "watchers_total", "age_days", "size_kb",
                   "owner_followers")
_PROPERTY_FIELDS = ("forks_total", "stars_total", "watchers_total", "age_days", "owner_followers",
                    "size_kb")


@dataclass(frozen=True, slots=True)
class RegressionResult:
    """Simple least-squares line plus the product-moment coefficient."""

    slope: float
    intercept: float
    pearson_r: float
    sample_count: int


def _correlated(
    x: Sequence[float], y: Sequence[float], what: str
) -> tuple[float, float, float, float, float, int]:
    """The means, ``sxx``, ``sxy``, the product-moment r clamped to [-1, 1]
    and the sample count of paired series; constant input raises
    DegenerateInput, saying that ``what`` is undefined."""
    if len(x) != len(y):
        raise LengthMismatch(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise DegenerateInput("need at least 2 paired samples")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    sxx = math.fsum((xi - mean_x) ** 2 for xi in x)
    syy = math.fsum((yi - mean_y) ** 2 for yi in y)
    sxy = math.fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput(f"{what} is undefined for a constant series")
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    return mean_x, mean_y, sxx, sxy, r, n


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient, clamped to [-1, 1].

    Raises:
        LengthMismatch: series lengths differ.
        DegenerateInput: fewer than 2 samples, or either series is constant.
    """
    return _correlated(x, y, "correlation")[4]


def ols_line(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Least-squares line y = slope*x + intercept, with pearson_r attached.

    Error behaviour matches :func:`pearson`: constant input on either side is
    rejected because the attached coefficient would be undefined.
    """
    mean_x, mean_y, sxx, sxy, r, n = _correlated(x, y, "regression")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    return RegressionResult(
        slope=slope, intercept=intercept, pearson_r=r, sample_count=n
    )


def _fit_on_wtps(
    corpus: Corpus, columns: Mapping
) -> tuple[dict, dict]:
    """Regress each column on the overall WTPS of ``corpus``: the fitted
    lines, and apart the constant columns with the reason."""
    scores = list(indicator_values(corpus, Indicator.WTPS).values())
    fitted, skipped = {}, {}
    for key, column in columns.items():
        try:
            fitted[key] = ols_line(scores, column)
        except DegenerateInput as exc:
            skipped[key] = str(exc)
    return fitted, skipped


def correlate(corpus: Corpus) -> tuple[dict[str, RegressionResult], dict[str, str]]:
    """Regress each repository property on the overall score: the lines by
    property, and apart the constant properties with the reason.

    Raises:
        DegenerateInput: no property admits a regression.
    """
    features = repo_features(corpus)
    fitted, skipped = _fit_on_wtps(corpus, {p: features[p] for p in _PROPERTY_FIELDS})
    if not fitted:
        raise DegenerateInput("no repository property admits a correlation with the score")
    return fitted, skipped


@dataclass(frozen=True, slots=True)
class SweepEntry:
    """Regression of one snapshot indicator on the weighted score for one
    interval width: the indicator and width, then ``RegressionResult``'s
    fields."""

    indicator: Indicator
    interval_days: int
    slope: float
    intercept: float
    pearson_r: float
    sample_count: int


def interval_sweep(
    corpus: Corpus, interval_days_list: Sequence[int] = DEFAULT_SWEEP_DAYS
) -> list[SweepEntry]:
    """Recompute grid, weights, and scores per interval width, then regress
    each snapshot indicator (forks, stars, watchers) on the overall score.

    x is the weighted score, y the snapshot total, so the slope reads as
    indicator units gained per score unit. Indicator/width pairs whose input
    is constant (e.g. a corpus with no watcher variation) are omitted rather
    than poisoning the whole sweep.
    """
    columns = {ind: list(indicator_values(corpus, ind).values()) for ind in SNAPSHOT_FIELDS}
    entries: list[SweepEntry] = []
    for days in interval_days_list:
        fitted, _ = _fit_on_wtps(corpus.regrid(days), columns)
        entries.extend(SweepEntry(ind, days, *astuple(result)) for ind, result in fitted.items())
    return entries


@dataclass(frozen=True, slots=True)
class DistributionSummary:
    """Five-number summary plus mean and an IQR-rule outlier count."""

    minimum: float
    first_quartile: float
    median: float
    third_quartile: float
    maximum: float
    mean: float
    outlier_count: int


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks on a pre-sorted sequence."""
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return ordered[low] + fraction * (ordered[high] - ordered[low])


def summarize(values: Iterable[float]) -> DistributionSummary:
    """Summarize a distribution; outliers lie beyond 1.5*IQR of the quartiles.

    Raises:
        EmptyInput: no values supplied.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise EmptyInput("cannot summarize an empty value sequence")
    q1 = _quantile(ordered, 0.25)
    q2 = _quantile(ordered, 0.50)
    q3 = _quantile(ordered, 0.75)
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    outliers = sum(1 for v in ordered if v < low_fence or v > high_fence)
    return DistributionSummary(
        minimum=ordered[0],
        first_quartile=q1,
        median=q2,
        third_quartile=q3,
        maximum=ordered[-1],
        mean=math.fsum(ordered) / len(ordered),
        outlier_count=outliers,
    )


def repo_age_days(corpus: Corpus) -> dict[str, float]:
    """Age of each repository in days at the corpus capture time."""
    return {
        r.repo_id: (corpus.captured_at - r.created_at) / SECONDS_PER_DAY for r in corpus.repos
    }


def repo_features(corpus: Corpus) -> dict[str, list[float]]:
    """The snapshot counts and the age in days as float columns, in
    ``_SUMMARY_FIELDS`` order, each in ``corpus.repos`` order."""
    columns = {name: [float(getattr(r, name)) for r in corpus.repos] for name in COUNT_FIELDS}
    columns["age_days"] = list(repo_age_days(corpus).values())
    return {name: columns[name] for name in _SUMMARY_FIELDS}
