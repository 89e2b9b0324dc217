import random
import statistics
from fractions import Fraction

import numpy as np
import pytest

from wtps import (
    DegenerateInput,
    EmptyInput,
    Indicator,
    LengthMismatch,
    bin_events,
    compute_weights,
    score_all,
)
from wtps.model import COUNT_FIELDS, Corpus, EventKind, PopularityEvent, RepoRecord
from wtps.scoring import SNAPSHOT_FIELDS
from wtps.stats import (
    _PROPERTY_FIELDS,
    _SUMMARY_FIELDS,
    correlate,
    interval_sweep,
    ols_line,
    pearson,
    repo_age_days,
    repo_features,
    summarize,
)
from synth import BASE_TS, DAY, make_corpus


def normal_equations_oracle(x, y):
    """Brute-force least squares: assemble and solve the 2x2 normal system."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    system = np.array([[n, x.sum()], [x.sum(), (x * x).sum()]])
    rhs = np.array([y.sum(), (x * y).sum()])
    intercept, slope = np.linalg.solve(system, rhs)
    return slope, intercept


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_half_correlation(self):
        # cov = 1, sd_x = sd_y = sqrt(2) (up to the shared 1/n factor)
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("x,y", [([1, 1, 1], [1, 2, 3]), ([1, 2, 3], [7, 7, 7])])
    def test_constant_series_rejected(self, x, y):
        with pytest.raises(DegenerateInput):
            pearson(x, y)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson([1], [2])

    def test_symmetry_and_affine_covariance(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(3, 40)
            x = [rng.uniform(-50, 50) for _ in range(n)]
            y = [rng.uniform(-50, 50) for _ in range(n)]
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            r = pearson(x, y)
            assert r == pytest.approx(pearson(y, x), abs=1e-12)
            a = rng.choice([-3.5, -1, 0.25, 2.0])
            b = rng.uniform(-10, 10)
            transformed = [a * xi + b for xi in x]
            sign = 1.0 if a > 0 else -1.0
            assert pearson(transformed, y) == pytest.approx(sign * r, abs=1e-9)


class TestOlsLine:
    def test_exact_line(self):
        result = ols_line([0, 1, 2, 3], [0, 2, 4, 6])
        assert result.slope == pytest.approx(2.0, abs=1e-12)
        assert result.intercept == pytest.approx(0.0, abs=1e-12)
        assert result.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert result.sample_count == 4

    def test_matches_normal_equations_oracle(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(3, 100)
            x = [rng.uniform(-100, 100) for _ in range(n)]
            y = [2.5 * xi + rng.gauss(0, 20) for xi in x]
            result = ols_line(x, y)
            slope, intercept = normal_equations_oracle(x, y)
            assert result.slope == pytest.approx(slope, abs=1e-9)
            assert result.intercept == pytest.approx(intercept, abs=1e-9)
            assert result.pearson_r == pytest.approx(
                float(np.corrcoef(x, y)[0, 1]), abs=1e-9
            )

    def test_residual_properties(self):
        rng = random.Random(23)
        x = [rng.uniform(0, 10) for _ in range(50)]
        y = [3 * xi - 4 + rng.gauss(0, 2) for xi in x]
        result = ols_line(x, y)
        residuals = [yi - (result.slope * xi + result.intercept) for xi, yi in zip(x, y)]
        assert sum(residuals) == pytest.approx(0.0, abs=1e-9)
        assert sum(r * xi for r, xi in zip(residuals, x)) == pytest.approx(0.0, abs=1e-9)

    def test_slope_sign_matches_r_sign(self):
        result = ols_line([0, 1, 2, 4], [9, 7, 6, 1])
        assert result.slope < 0
        assert result.pearson_r < 0

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInput):
            ols_line([1, 1, 1], [1, 2, 3])

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(3, 100)
            x = [rng.uniform(-100, 100) for _ in range(n)]
            y = [rng.choice([-1, 1]) * 0.7 * xi + rng.gauss(0, 30) for xi in x]
            result = ols_line(x, y)
            line = scipy_stats.linregress(x, y)
            assert result.slope == pytest.approx(line.slope, rel=1e-9, abs=1e-12)
            assert result.intercept == pytest.approx(line.intercept, rel=1e-9, abs=1e-9)
            assert result.pearson_r == pytest.approx(line.rvalue, abs=1e-12)
            assert pearson(x, y) == pytest.approx(scipy_stats.pearsonr(x, y)[0], abs=1e-12)

    def test_intercept_of_a_cancelling_series_matches_scipy(self):
        # y is 3x plus noise at 1e8, so the intercept is the difference of
        # two values near 3e8; its exact value is 0. Forming it as
        # ``fsum(y)/n - slope*fsum(x)/n`` is 6e-8 off.
        scipy_stats = pytest.importorskip("scipy.stats")
        x = [100_000_007.0, 100_000_007.0, 100_000_000.0]
        y = [300_000_018.0, 300_000_024.0, 300_000_000.0]
        mean_x, mean_y = Fraction(sum(map(int, x)), 3), Fraction(sum(map(int, y)), 3)
        sxy = sum((Fraction(a) - mean_x) * (Fraction(b) - mean_y) for a, b in zip(x, y))
        sxx = sum((Fraction(a) - mean_x) ** 2 for a in x)
        assert mean_y - sxy / sxx * mean_x == 0
        intercept = ols_line(x, y).intercept
        assert intercept == pytest.approx(scipy_stats.linregress(x, y).intercept, abs=1e-9)
        assert intercept == pytest.approx(0.0, abs=1e-9)


class TestSummarize:
    def test_odd_count_quartiles(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.first_quartile == 2
        assert summary.median == 3
        assert summary.third_quartile == 4
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.mean == 3
        assert summary.outlier_count == 0

    def test_single_value(self):
        summary = summarize([5])
        assert (
            summary.minimum == summary.first_quartile == summary.median
            == summary.third_quartile == summary.maximum == 5
        )

    def test_iqr_outlier(self):
        summary = summarize([1, 1, 1, 100])
        assert summary.outlier_count == 1

    def test_matches_numpy_linear_quantiles(self):
        rng = random.Random(31)
        for _ in range(15):
            values = [rng.uniform(-100, 100) for _ in range(rng.randint(1, 60))]
            summary = summarize(values)
            q1, q2, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            assert summary.first_quartile == pytest.approx(q1, abs=1e-9)
            assert summary.median == pytest.approx(q2, abs=1e-9)
            assert summary.third_quartile == pytest.approx(q3, abs=1e-9)

    def test_permutation_invariant(self):
        rng = random.Random(37)
        values = [rng.uniform(0, 50) for _ in range(30)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert summarize(values) == summarize(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            summarize([])

    def test_mean_of_cancelling_values_is_exact(self):
        # A running float sum loses the 1.0 between the two large values.
        values = [1e16, 1.0, -1e16]
        assert summarize(values).mean == statistics.fmean(values) == 1 / 3


def _single_burst_corpus(n_repos=6):
    """All activity lands on a single shared day with forks == stars == c_r.

    Whatever the interval width, everything falls in one bin, so the overall
    score collapses to 2*c_r and every snapshot total is affine in it.
    """
    repos = []
    events = []
    for i in range(n_repos):
        rid = f"repo{i}"
        count = 3 + 2 * i
        repos.append(RepoRecord(
            repo_id=rid, full_name=f"o/{rid}", created_at=BASE_TS,
            forks_total=count, stars_total=count, watchers_total=count + 7,
        ))
        ts = BASE_TS + 5 * 3600 + i * 60
        events.append(PopularityEvent(rid, EventKind.FORK, ts, count))
        events.append(PopularityEvent(rid, EventKind.STAR, ts, count))
    return Corpus.build(repos, events, interval_days=30)


class TestIntervalSweep:
    def test_sample_shape_skips_constant_watchers(self, community_corpus):
        entries = interval_sweep(community_corpus, [30, 21])
        assert len(entries) == 4
        assert all(e.sample_count == 4 for e in entries)
        assert {e.indicator for e in entries} == {Indicator.FORKS, Indicator.STARS}
        assert sorted({e.interval_days for e in entries}) == [21, 30]

    def test_affine_snapshots_give_unit_correlation(self):
        corpus = _single_burst_corpus()
        entries = interval_sweep(corpus, [30, 21, 14, 7])
        assert len(entries) == 12
        for entry in entries:
            assert entry.pearson_r == pytest.approx(1.0, abs=1e-9)

    def test_correlations_stable_across_widths(self):
        rng = random.Random(8)
        corpus = make_corpus(rng, n_repos=60, n_intervals=8, max_delta=30)
        entries = interval_sweep(corpus, [30, 21, 14, 7])
        by_indicator = {}
        for entry in entries:
            by_indicator.setdefault(entry.indicator, []).append(entry.pearson_r)
        for indicator in (Indicator.FORKS, Indicator.STARS):
            rs = by_indicator[indicator]
            assert len(rs) == 4
            assert max(rs) - min(rs) < 0.2  # loose sanity bound; tight bound in acceptance


class TestCorrelate:
    def test_sample_lines_and_skipped_properties(self, community_corpus):
        fitted, skipped = correlate(community_corpus)
        # every shipped sample repo shares one creation date and zero watchers
        assert set(skipped) == {"watchers_total", "age_days"}
        assert list(fitted) == ["forks_total", "stars_total", "owner_followers", "size_kb"]
        binned = bin_events(community_corpus)
        scores = [c.overall for c in score_all(binned, compute_weights(binned))]
        features = repo_features(community_corpus)
        for prop, result in fitted.items():
            assert result == ols_line(scores, features[prop])

    def test_nothing_to_regress_is_degenerate(self):
        corpus = Corpus.build([RepoRecord("R1", "o/r", BASE_TS)], [], interval_days=30)
        with pytest.raises(DegenerateInput):
            correlate(corpus)


class TestFeatureTable:
    def test_every_feature_list_is_the_counts_and_the_age(self, community_corpus):
        assert set(SNAPSHOT_FIELDS.values()) <= set(COUNT_FIELDS)
        features = sorted(COUNT_FIELDS + ("age_days",))
        assert sorted(_SUMMARY_FIELDS) == sorted(_PROPERTY_FIELDS) == features
        assert tuple(repo_features(community_corpus)) == _SUMMARY_FIELDS


class TestRepoAge:
    def test_age_measured_from_capture_time(self):
        repo_old = RepoRecord(repo_id="a", full_name="o/a", created_at=BASE_TS)
        repo_new = RepoRecord(repo_id="b", full_name="o/b", created_at=BASE_TS + 40 * DAY)
        event = PopularityEvent("a", EventKind.STAR, BASE_TS + 100 * DAY, 1)
        corpus = Corpus.build([repo_old, repo_new], [event], interval_days=30)
        ages = repo_age_days(corpus)
        assert ages["a"] == pytest.approx(100.0)
        assert ages["b"] == pytest.approx(60.0)

    def test_explicit_capture_time_wins(self):
        repo = RepoRecord(repo_id="a", full_name="o/a", created_at=BASE_TS)
        event = PopularityEvent("a", EventKind.STAR, BASE_TS + DAY, 1)
        corpus = Corpus.build([repo], [event], captured_at=BASE_TS + 10 * DAY)
        assert repo_age_days(corpus)["a"] == pytest.approx(10.0)
