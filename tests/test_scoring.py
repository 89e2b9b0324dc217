import random
from fractions import Fraction

import numpy as np
import pytest

from wtps import (
    Indicator,
    IntervalOutOfRange,
    UnknownRepo,
    bin_events,
    compute_weights,
    rank,
    score_all,
)
from wtps import model, scoring
from wtps.model import BinnedCounts, EventKind
from wtps.scoring import (
    GrowthPattern,
    GrowthThresholds,
    classify_growth,
    unit_weights,
    wtps_interval,
    wtps_overall,
)
from synth import make_corpus, scale_events

# Hand-checked weight rows for the bundled 4-repo sample: each interval's
# share of the community-wide fork (star) deltas.
EXPECTED_FORK_WEIGHTS = (
    Fraction(44, 200), Fraction(50, 200), Fraction(22, 200),
    Fraction(27, 200), Fraction(57, 200),
)
EXPECTED_STAR_WEIGHTS = (
    Fraction(25, 180), Fraction(34, 180), Fraction(22, 180),
    Fraction(55, 180), Fraction(44, 180),
)


def exact_scorecard(binned, repo_id):
    """Independent oracle: exact rational weight and score evaluation."""
    fork_cols = [int(c) for c in binned.interval_totals(EventKind.FORK)]
    star_cols = [int(c) for c in binned.interval_totals(EventKind.STAR)]
    fork_total = sum(fork_cols)
    star_total = sum(star_cols)
    wf = [Fraction(c, fork_total) if fork_total > 0 else Fraction(0) for c in fork_cols]
    ws = [Fraction(c, star_total) if star_total > 0 else Fraction(0) for c in star_cols]
    forks = binned.deltas(repo_id, EventKind.FORK)
    stars = binned.deltas(repo_id, EventKind.STAR)
    per_interval = [
        wf[t] * int(forks[t]) + ws[t] * int(stars[t])
        for t in range(binned.interval_count)
    ]
    return per_interval, sum(per_interval)


def _bits(card):
    """A card's id, interval scores and overall score, each float as its hex
    form, so that -0.0 and 0.0 differ."""
    return card.repo_id, [v.hex() for v in card.interval_scores], card.overall.hex()


def _binned(forks_rows, stars_rows):
    repo_ids = tuple(sorted(forks_rows))
    return BinnedCounts(
        repo_ids=repo_ids,
        interval_count=len(next(iter(forks_rows.values()))),
        forks=np.array([forks_rows[r] for r in repo_ids], dtype=np.int64),
        stars=np.array([stars_rows[r] for r in repo_ids], dtype=np.int64),
    )


@pytest.fixture(scope="module")
def community_binned(community_corpus):
    return bin_events(community_corpus)


class TestWeights:
    def test_community_sample_weights_exact(self, community_binned):
        table = compute_weights(community_binned)
        for got, want in zip(table.fork_weights, EXPECTED_FORK_WEIGHTS):
            assert abs(got - float(want)) < 1e-12
        for got, want in zip(table.star_weights, EXPECTED_STAR_WEIGHTS):
            assert abs(got - float(want)) < 1e-12

    def test_zero_star_corpus_zeroes_star_weights(self):
        binned = _binned(
            {"A": [3, 1], "B": [0, 2]},
            {"A": [0, 0], "B": [0, 0]},
        )
        table = compute_weights(binned)
        assert table.star_weights == (0.0, 0.0)
        assert abs(sum(table.fork_weights) - 1.0) < 1e-12

    def test_negative_total_zeroes_weights(self):
        binned = _binned({"A": [2, -5]}, {"A": [1, 0]})
        table = compute_weights(binned)
        assert table.fork_weights == (0.0, 0.0)

    def test_weight_sums_normalized(self):
        for seed in range(25):
            rng = random.Random(seed)
            corpus = make_corpus(rng, n_repos=rng.randint(1, 12),
                                 n_intervals=rng.randint(1, 7))
            binned = bin_events(corpus)
            table = compute_weights(binned)
            if binned.interval_totals(EventKind.FORK).sum() > 0:
                assert abs(sum(table.fork_weights) - 1.0) < 1e-9
            if binned.interval_totals(EventKind.STAR).sum() > 0:
                assert abs(sum(table.star_weights) - 1.0) < 1e-9

    def test_mismatched_weight_rows_rejected(self):
        from wtps.scoring import WeightTable

        with pytest.raises(ValueError):
            WeightTable(fork_weights=(1.0,), star_weights=(0.5, 0.5))


class TestIntervalScores:
    def test_first_repo_second_interval_matches_oracle(self, community_binned):
        table = compute_weights(community_binned)
        per_interval, _ = exact_scorecard(community_binned, "R1")
        got = wtps_interval(community_binned, table, "R1", 0)
        assert abs(got - float(per_interval[0])) < 1e-9
        # 0.22 * 15 + (25/180) * 6
        assert abs(got - 4.1333333333) < 1e-9

    def test_last_interval_score(self, community_binned):
        table = compute_weights(community_binned)
        got = wtps_interval(community_binned, table, "R2", 4)
        assert abs(got - 10.5055555556) < 1e-9

    def test_inactive_interval_scores_zero(self):
        binned = _binned({"A": [0, 4], "B": [1, 0]}, {"A": [0, 2], "B": [3, 0]})
        table = compute_weights(binned)
        assert wtps_interval(binned, table, "A", 0) == 0.0

    def test_unknown_repo(self, community_binned):
        table = compute_weights(community_binned)
        with pytest.raises(UnknownRepo):
            wtps_interval(community_binned, table, "nope", 0)

    def test_interval_out_of_range(self, community_binned):
        table = compute_weights(community_binned)
        with pytest.raises(IntervalOutOfRange):
            wtps_interval(community_binned, table, "R1", 5)
        with pytest.raises(IntervalOutOfRange):
            wtps_interval(community_binned, table, "R1", -1)

    def test_table_length_mismatch_rejected(self, community_binned):
        with pytest.raises(ValueError):
            wtps_interval(community_binned, unit_weights(3), "R1", 0)


class TestOverallScores:
    def test_overall_matches_oracle(self, community_binned):
        table = compute_weights(community_binned)
        for rid in community_binned.repo_ids:
            _, exact_total = exact_scorecard(community_binned, rid)
            card = wtps_overall(community_binned, table, rid)
            assert abs(card.overall - float(exact_total)) < 1e-9

    def test_overall_is_sum_of_interval_scores(self, community_binned):
        table = compute_weights(community_binned)
        for card in score_all(community_binned, table):
            assert abs(card.overall - sum(card.interval_scores)) < 1e-9

    def test_unit_weights_collapse_to_raw_totals(self, community_binned, community_corpus):
        table = unit_weights(community_binned.interval_count)
        card = wtps_overall(community_binned, table, "R1")
        assert card.overall == 99.0
        for record in community_corpus.repos:
            got = wtps_overall(community_binned, table, record.repo_id).overall
            assert got == record.forks_total + record.stars_total

    def test_eventless_repo_scores_zero(self):
        binned = _binned({"A": [5, 5], "B": [0, 0]}, {"A": [2, 2], "B": [0, 0]})
        table = compute_weights(binned)
        assert wtps_overall(binned, table, "B").overall == 0.0

    @pytest.mark.parametrize("numpy_from", [None, 0])
    @pytest.mark.parametrize("n_intervals", [5, 130, 300])
    @pytest.mark.parametrize("weigh", [compute_weights, lambda b: unit_weights(b.interval_count)])
    def test_score_all_matches_single_repo_path(self, community_corpus, monkeypatch,
                                                numpy_from, n_intervals, weigh):
        # Bit for bit, on either kernel's counts and on rows past the 8- and
        # 128-cell blocks of the pairwise sum, with signed weights too.
        corpus = community_corpus if n_intervals == 5 else make_corpus(
            random.Random(n_intervals), n_repos=6, n_intervals=n_intervals, interval_days=7,
            allow_negative=True)
        if numpy_from is not None:
            monkeypatch.setattr(model, "_NUMPY_FROM", numpy_from)
        binned = bin_events(corpus)
        assert binned.vectorized is (numpy_from == 0)
        assert binned.interval_count > (128 if n_intervals > 5 else 4)
        table = weigh(binned)
        cards = score_all(binned, table)
        assert [c.repo_id for c in cards] == list(binned.repo_ids)
        for card in cards:
            assert _bits(wtps_overall(binned, table, card.repo_id)) == _bits(card)
            assert [wtps_interval(binned, table, card.repo_id, t).hex()
                    for t in range(binned.interval_count)] == _bits(card)[1]

    def test_ndarray_counts_score_as_score_all_does(self):
        # Counts given as ndarrays are ``vectorized``: score_all scores them
        # with numpy, and the one-row path from their int lists.
        rng = random.Random(5)
        rows = {rid: [rng.randint(-9, 40) for _ in range(720)] for rid in "ABC"}
        binned = _binned(rows, {rid: row[::-1] for rid, row in rows.items()})
        assert binned.vectorized
        for table in (compute_weights(binned), unit_weights(720)):
            for card in score_all(binned, table):
                assert _bits(wtps_overall(binned, table, card.repo_id)) == _bits(card)

    def test_single_repo_path_sums_only_its_own_row(self, community_binned, monkeypatch):
        calls = []
        row_sum = scoring._row_sum
        monkeypatch.setattr(scoring, "_row_sum", lambda row: calls.append(row) or row_sum(row))
        table = compute_weights(community_binned)
        card = wtps_overall(community_binned, table, "R3")
        assert calls == [list(card.interval_scores)]
        assert wtps_interval(community_binned, table, "R3", 2) == card.interval_scores[2]
        assert len(calls) == 2

    def test_single_repo_errors_in_order(self, community_binned):
        # Width first, then the repository, then the interval.
        table = compute_weights(community_binned)
        with pytest.raises(ValueError, match="weight table covers 3 intervals"):
            wtps_interval(community_binned, unit_weights(3), "nope", 9)
        with pytest.raises(UnknownRepo):
            wtps_interval(community_binned, table, "nope", 9)
        with pytest.raises(ValueError, match="weight table covers 3 intervals"):
            wtps_overall(community_binned, unit_weights(3), "nope")


class TestRanking:
    def test_fork_ranking(self, community_corpus):
        entries = rank(community_corpus, Indicator.FORKS)
        assert [e.repo_id for e in entries] == ["R2", "R1", "R4", "R3"]
        assert [e.value for e in entries] == [58, 54, 46, 42]
        assert [e.rank for e in entries] == [1, 2, 3, 4]

    def test_star_ranking(self, community_corpus):
        entries = rank(community_corpus, Indicator.STARS)
        assert [e.repo_id for e in entries] == ["R4", "R3", "R1", "R2"]
        assert [e.value for e in entries] == [55, 50, 45, 30]

    def test_wtps_ranking_matches_oracle(self, community_corpus):
        binned = bin_events(community_corpus)
        totals = {rid: exact_scorecard(binned, rid)[1] for rid in binned.repo_ids}
        oracle_order = sorted(totals, key=lambda r: (-totals[r], r))
        entries = rank(community_corpus, Indicator.WTPS)
        assert [e.repo_id for e in entries] == oracle_order == ["R1", "R3", "R4", "R2"]
        assert abs(entries[0].value - 22.2122222222) < 1e-9

    def test_competition_ranking_shares_lower_number(self):
        rng = random.Random(3)
        corpus = make_corpus(rng, n_repos=4, n_intervals=2)
        tied = [
            r if i > 1 else
            type(r)(**{
                "repo_id": r.repo_id, "full_name": r.full_name,
                "created_at": r.created_at, "primary_language": r.primary_language,
                "size_kb": r.size_kb, "owner_followers": r.owner_followers,
                "forks_total": 17, "stars_total": r.stars_total,
                "watchers_total": r.watchers_total, "follower_ids": r.follower_ids,
            })
            for i, r in enumerate(corpus.repos)
        ]
        corpus = type(corpus)(repos=tuple(tied), events=corpus.events,
                              grid=corpus.grid, captured_at=corpus.captured_at)
        entries = rank(corpus, Indicator.FORKS)
        tied_entries = [e for e in entries if e.value == 17]
        assert len(tied_entries) == 2
        assert tied_entries[0].rank == tied_entries[1].rank
        assert tied_entries[0].repo_id < tied_entries[1].repo_id
        ranks = [e.rank for e in entries]
        assert len(set(ranks)) == 3  # 1, 1, 3, 4 style numbering
        assert ranks == sorted(ranks)

    def test_rank_deterministic(self, community_corpus):
        first = rank(community_corpus, Indicator.WTPS)
        second = rank(community_corpus, Indicator.WTPS)
        assert first == second


class TestScaleCovariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_power_of_two_scaling_is_exact(self, seed):
        rng = random.Random(seed)
        corpus = make_corpus(rng, n_repos=rng.randint(2, 10),
                             n_intervals=rng.randint(1, 6))
        k = rng.choice((2, 4, 8))
        scaled = scale_events(corpus, k)

        base_binned = bin_events(corpus)
        scaled_binned = bin_events(scaled)
        assert compute_weights(base_binned) == compute_weights(scaled_binned)

        base_cards = score_all(base_binned, compute_weights(base_binned))
        scaled_cards = score_all(scaled_binned, compute_weights(scaled_binned))
        for base, big in zip(base_cards, scaled_cards):
            assert big.overall == k * base.overall

        assert [e.repo_id for e in rank(corpus, Indicator.WTPS)] == [
            e.repo_id for e in rank(scaled, Indicator.WTPS)
        ]

    def test_arbitrary_scaling_within_tolerance(self):
        rng = random.Random(99)
        corpus = make_corpus(rng, n_repos=6, n_intervals=4)
        scaled = scale_events(corpus, 3)
        base = {c.repo_id: c.overall
                for c in score_all(bin_events(corpus), compute_weights(bin_events(corpus)))}
        big = {c.repo_id: c.overall
               for c in score_all(bin_events(scaled), compute_weights(bin_events(scaled)))}
        for rid, value in base.items():
            assert big[rid] == pytest.approx(3 * value, rel=1e-9, abs=1e-9)

    def test_single_repo_identity(self):
        for seed in range(10):
            rng = random.Random(seed)
            corpus = make_corpus(rng, n_repos=1, n_intervals=rng.randint(1, 6))
            binned = bin_events(corpus)
            table = compute_weights(binned)
            if binned.interval_totals(EventKind.FORK).sum() > 0:
                assert abs(sum(table.fork_weights) - 1.0) < 1e-9
            rid = binned.repo_ids[0]
            _, exact_total = exact_scorecard(binned, rid)
            card = wtps_overall(binned, table, rid)
            assert abs(card.overall - float(exact_total)) < 1e-9


class TestGrowthClassification:
    def test_below_activity_floor_is_stagnant(self):
        binned = _binned({"A": [0, 0, 0, 0, 0]}, {"A": [0, 0, 1, 0, 1]})
        label = classify_growth(binned, "A", Indicator.STARS)
        assert label.pattern is GrowthPattern.STAGNANT
        assert label.final_cumulative == 2

    def test_peak_collapse_is_gained_then_lost(self):
        binned = _binned({"A": [50, 30, -40, -30, 1]}, {"A": [0] * 5})
        label = classify_growth(binned, "A", Indicator.FORKS)
        assert label.pattern is GrowthPattern.GAINED_THEN_LOST
        assert label.peak_cumulative == 80
        assert label.final_cumulative == 11

    def test_mostly_positive_intervals_is_sustained(self, community_binned):
        label = classify_growth(community_binned, "R3", Indicator.FORKS)
        assert label.pattern is GrowthPattern.SUSTAINED_GROWTH
        assert label.positive_fraction == 1.0

    def test_active_but_flat_falls_back_to_stagnant(self):
        # enough activity, mild losses, positives under the 60% bar
        binned = _binned({"A": [10, -1, 10, -1, 0]}, {"A": [0] * 5})
        label = classify_growth(binned, "A", Indicator.FORKS)
        assert label.pattern is GrowthPattern.STAGNANT
        assert label.positive_fraction == 0.5

    @pytest.mark.parametrize("forks,pattern,peak,final", [
        # Activity is the sum of |delta|, 11, though the deltas net 1.
        ([6, -5], GrowthPattern.GAINED_THEN_LOST, 6, 1),
        # 3 positive of 5 active intervals is at least the 0.6 bar.
        ([5, -1, 5, -1, 5, 0], GrowthPattern.SUSTAINED_GROWTH, 13, 13),
        # A drop from peak 5 to 4 is 0.2 of the peak, not more than 0.2.
        ([5, -3, 1, 1, 1, -1], GrowthPattern.SUSTAINED_GROWTH, 5, 4),
    ])
    def test_rules_at_their_bars(self, forks, pattern, peak, final):
        binned = _binned({"A": forks}, {"A": [0] * len(forks)})
        label = classify_growth(binned, "A", Indicator.FORKS)
        assert (label.pattern, label.peak_cumulative, label.final_cumulative) == (
            pattern, peak, final)

    def test_thresholds_are_configurable(self):
        binned = _binned({"A": [0, 0, 0, 0, 0]}, {"A": [0, 0, 1, 0, 1]})
        label = classify_growth(
            binned, "A", Indicator.STARS, GrowthThresholds(min_activity=1)
        )
        assert label.pattern is GrowthPattern.SUSTAINED_GROWTH

    @pytest.mark.parametrize("field,value,message", [
        ("min_activity", True, "min_activity must be an integer"),
        ("min_activity", 2.5, "min_activity must be an integer"),
        ("min_activity", "5", "min_activity must be an integer"),
        ("min_activity", None, "min_activity must be an integer"),
        ("min_activity", -1, "min_activity must be >= 0"),
        ("loss_fraction", "0.5", "loss_fraction must be a number"),
        ("loss_fraction", True, "loss_fraction must be a number"),
        ("loss_fraction", None, "loss_fraction must be a number"),
        ("loss_fraction", 1.5, "loss_fraction must be a number"),
        ("growth_fraction", "0.5", "growth_fraction must be a number"),
        ("growth_fraction", False, "growth_fraction must be a number"),
        ("growth_fraction", 1j, "growth_fraction must be a number"),
        ("growth_fraction", float("nan"), "growth_fraction must be a number"),
    ])
    def test_thresholds_refuse_values_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            GrowthThresholds(**{field: value})

    def test_thresholds_take_any_integer_and_real(self):
        thresholds = GrowthThresholds(min_activity=np.int64(3), loss_fraction=Fraction(1, 4),
                                      growth_fraction=np.float64(0.5))
        assert type(thresholds.min_activity) is int and thresholds.min_activity == 3
        assert GrowthThresholds(loss_fraction=0, growth_fraction=1).growth_fraction == 1

    def test_unknown_repo(self, community_binned):
        with pytest.raises(UnknownRepo):
            classify_growth(community_binned, "nope", Indicator.FORKS)

    def test_watchers_not_classifiable(self, community_binned):
        with pytest.raises(ValueError):
            classify_growth(community_binned, "R1", Indicator.WATCHERS)
