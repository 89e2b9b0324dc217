"""Community popularity weights, weighted total popularity scores, rankings,
and growth-pattern classification.

The weighted total popularity score (WTPS) of a repository values each fork
or star gain by how much of the whole community's fork/star activity fell in
the same time interval: an interval's fork weight is that interval's share of
all fork deltas corpus-wide (star weights analogous), and a repository's
score is the weight-scaled sum of its own per-interval gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import add, mul
from typing import Mapping, Sequence

from .errors import IntervalOutOfRange
from .model import BinnedCounts, Corpus, EventKind, bin_events


class Indicator(Enum):
    """Popularity measures a repository can be ranked under."""

    FORKS = "forks"
    STARS = "stars"
    WATCHERS = "watchers"
    WTPS = "wtps"


SNAPSHOT_FIELDS: Mapping[Indicator, str] = {
    Indicator.FORKS: "forks_total",
    Indicator.STARS: "stars_total",
    Indicator.WATCHERS: "watchers_total",
}


@dataclass(frozen=True, slots=True)
class WeightTable:
    """Per-interval fork and star weights for a corpus.

    Weights produced by :func:`compute_weights` sum to 1 per indicator when
    the corpus-wide total is positive and are all zero otherwise. Tables from
    :func:`unit_weights` (the isolated-repository mode) are exempt from the
    sum rule by design.
    """

    fork_weights: tuple[float, ...]
    star_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.fork_weights) != len(self.star_weights):
            raise ValueError("fork and star weight sequences must align")

    @property
    def interval_count(self) -> int:
        return len(self.fork_weights)


def compute_weights(binned: BinnedCounts) -> WeightTable:
    """Derive community weights from binned counts.

    fork_weights[t] is the fraction of all fork deltas that fell in interval
    t, and likewise for stars. A non-positive corpus-wide total makes that
    indicator's weights all zero, so a missing indicator contributes nothing
    rather than inventing uniform signal.
    """

    def normalize(per_interval: list[int]) -> tuple[float, ...]:
        total = sum(per_interval)
        if total <= 0:
            return (0.0,) * len(per_interval)
        return tuple(c / total for c in per_interval)

    return WeightTable(
        fork_weights=normalize(binned.totals(EventKind.FORK)),
        star_weights=normalize(binned.totals(EventKind.STAR)),
    )


def unit_weights(interval_count: int) -> WeightTable:
    """All-ones weights: scores a repository as if it stood alone.

    With every weight forced to 1 the overall score collapses to the plain
    sum of fork and star deltas.
    """
    ones = (1.0,) * interval_count
    return WeightTable(fork_weights=ones, star_weights=ones)


@dataclass(frozen=True, slots=True)
class ScoreCard:
    """Per-interval and overall weighted scores for one repository."""

    repo_id: str
    interval_scores: tuple[float, ...]
    overall: float


def _score_rows(
    binned: BinnedCounts, weights: WeightTable, per_interval: bool = True
) -> tuple[list[list[float]], list[float]]:
    """Each repository's weighted score per interval, and overall, in
    ``repo_ids`` order; without ``per_interval`` only the overall scores.

    Each cell is ``forks * wf + stars * ws`` with the int count converted to
    float first, and each overall score is the ``_row_sum`` of its row, as
    numpy computes them; ``vectorized`` counts are scored by numpy itself.
    """
    if weights.interval_count != binned.interval_count:
        raise ValueError(
            f"weight table covers {weights.interval_count} intervals, "
            f"binned counts cover {binned.interval_count}"
        )
    if binned.vectorized:
        import numpy as np

        scores = (binned.forks * np.asarray(weights.fork_weights, dtype=np.float64)
                  + binned.stars * np.asarray(weights.star_weights, dtype=np.float64))
        return scores.tolist() if per_interval else [], scores.sum(axis=1).tolist()
    wf, ws = list(map(float, weights.fork_weights)), list(map(float, weights.star_weights))
    rows = [list(map(add, map(mul, forks, wf), map(mul, stars, ws)))
            for forks, stars in zip(binned.rows(EventKind.FORK), binned.rows(EventKind.STAR))]
    return rows, list(map(_row_sum, rows))


def _pairwise_sum(row: Sequence[float], start: int, n: int) -> float:
    """numpy's pairwise sum of ``row[start:start + n]``: a plain loop from
    0.0 below 8 values; 8 accumulators up to a block of 128; above that, two
    halves split at a multiple of 8."""
    if n < 8:
        total = 0.0
        for value in row[start:start + n]:
            total += value
        return total
    if n <= 128:
        stop = start + n - n % 8
        r = [reduce(add, row[start + j:stop:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in row[stop:start + n]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(row, start, half) + _pairwise_sum(row, start + half, n - half)


def _row_sum(row: Sequence[float]) -> float:
    """The sum of a float row as ``np.add.reduce`` gives it, bit for bit: the
    pairwise sum added to an initial 0.0 (so ``-0.0`` cells sum to 0.0).
    Builtin ``sum`` starts from the int 0 and, from Python 3.12, compensates,
    so it is not used."""
    return 0.0 + _pairwise_sum(row, 0, len(row))


def wtps_interval(
    binned: BinnedCounts, weights: WeightTable, repo_id: str, t: int
) -> float:
    """Weighted score of one repository in one interval."""
    scores = _score_rows(binned, weights)[0][binned.row_index(repo_id)]
    if not 0 <= t < binned.interval_count:
        raise IntervalOutOfRange(f"interval {t} outside [0, {binned.interval_count})")
    return scores[t]


def wtps_overall(
    binned: BinnedCounts, weights: WeightTable, repo_id: str
) -> ScoreCard:
    """Overall weighted score: the sum of all interval scores."""
    scores, overall = _score_rows(binned, weights)
    row = binned.row_index(repo_id)
    return ScoreCard(repo_id=repo_id, interval_scores=tuple(scores[row]), overall=overall[row])


def score_all(binned: BinnedCounts, weights: WeightTable) -> list[ScoreCard]:
    """Score every repository; output ordered by repo_id."""
    return [
        ScoreCard(repo_id=rid, interval_scores=tuple(scores), overall=overall)
        for rid, scores, overall in zip(binned.repo_ids, *_score_rows(binned, weights))
    ]


@dataclass(frozen=True, slots=True)
class RankEntry:
    """One row of a ranking: 1-based competition rank (ties share the lower
    rank number; tie order within equal values is ascending repo_id)."""

    repo_id: str
    value: float
    rank: int


def indicator_values(
    corpus: Corpus,
    indicator: Indicator,
    *,
    weights: WeightTable | None = None,
) -> dict[str, int | float]:
    """Each repository's value under one indicator, keyed by repo_id in
    sorted order.

    Count indicators give the snapshot totals; WTPS gives the overall
    weighted score, from community weights unless a ``weights`` table (e.g.
    unit weights) is supplied. ``weights`` is ignored for count indicators.
    """
    if indicator is Indicator.WTPS:
        binned = bin_events(corpus)
        if weights is None:
            weights = compute_weights(binned)
        return dict(zip(binned.repo_ids, _score_rows(binned, weights, per_interval=False)[1]))
    attr = SNAPSHOT_FIELDS[indicator]
    return {r.repo_id: getattr(r, attr) for r in corpus.repos}


def rank(
    corpus: Corpus,
    indicator: Indicator,
    *,
    weights: WeightTable | None = None,
) -> list[RankEntry]:
    """Rank all repositories under one indicator, descending by the value
    :func:`indicator_values` gives."""
    values = indicator_values(corpus, indicator, weights=weights)
    ordered = sorted(values, key=lambda rid: (-values[rid], rid))
    entries: list[RankEntry] = []
    for position, rid in enumerate(ordered, start=1):
        tied = bool(entries) and entries[-1].value == values[rid]
        entries.append(RankEntry(rid, values[rid], entries[-1].rank if tied else position))
    return entries


class GrowthPattern(Enum):
    """The three popularity-growth trajectories."""

    STAGNANT = "stagnant"
    GAINED_THEN_LOST = "gained_then_lost"
    SUSTAINED_GROWTH = "sustained_growth"


@dataclass(frozen=True, slots=True)
class GrowthThresholds:
    """Tunable cutoffs for growth classification.

    min_activity: total |delta| below which a repository is stagnant.
    loss_fraction: peak-to-final cumulative drop beyond which popularity
        counts as gained-then-lost.
    growth_fraction: minimum share of active (nonzero-delta) intervals with a
        positive delta for sustained growth.
    """

    min_activity: int = 10
    loss_fraction: float = 0.2
    growth_fraction: float = 0.6

    def __post_init__(self) -> None:
        for name in ("loss_fraction", "growth_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if not self.min_activity >= 0:
            raise ValueError(f"min_activity must be >= 0, got {self.min_activity!r}")


@dataclass(frozen=True, slots=True)
class GrowthLabel:
    """Classification outcome plus the evidence it was decided on."""

    repo_id: str
    indicator: Indicator
    pattern: GrowthPattern
    peak_cumulative: int
    final_cumulative: int
    positive_fraction: float


def classify_growth(
    binned: BinnedCounts,
    repo_id: str,
    indicator: Indicator,
    thresholds: GrowthThresholds = GrowthThresholds(),
) -> GrowthLabel:
    """Label one repository's growth trajectory for forks or stars.

    Rules, in order: below the activity floor -> stagnant; cumulative peak
    exceeding the final cumulative count by more than ``loss_fraction`` ->
    gained-then-lost; positive deltas in at least ``growth_fraction`` of the
    repo's active intervals -> sustained growth; anything else -> stagnant.
    """
    if indicator not in (Indicator.FORKS, Indicator.STARS):
        raise ValueError("growth classification covers forks and stars only")
    kind = EventKind.FORK if indicator is Indicator.FORKS else EventKind.STAR
    deltas = binned.rows(kind)[binned.row_index(repo_id)]

    cumulative = list(accumulate(deltas))
    peak = max(cumulative, default=0)
    final = cumulative[-1] if cumulative else 0
    active = sum(1 for d in deltas if d)
    positive = sum(1 for d in deltas if d > 0)
    positive_fraction = positive / active if active else 0.0

    if sum(map(abs, deltas)) < thresholds.min_activity:
        pattern = GrowthPattern.STAGNANT
    elif peak > 0 and (peak - final) / peak > thresholds.loss_fraction:
        pattern = GrowthPattern.GAINED_THEN_LOST
    elif positive_fraction >= thresholds.growth_fraction:
        pattern = GrowthPattern.SUSTAINED_GROWTH
    else:
        pattern = GrowthPattern.STAGNANT
    return GrowthLabel(
        repo_id=repo_id,
        indicator=indicator,
        pattern=pattern,
        peak_cumulative=peak,
        final_cumulative=final,
        positive_fraction=positive_fraction,
    )
