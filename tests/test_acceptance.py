"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL verdict line in the pytest terminal summary
(wired in conftest.py). Oracles here are self-contained and independent of
the library code paths they check: exact rational arithmetic for scores,
brute-force normal equations for regression, exhaustive pair enumeration for
the graph coefficient.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from wtps import (
    Indicator,
    bin_events,
    compute_weights,
    load_corpus,
    rank,
    score_all,
)
from wtps.dataset import save_corpus
from wtps.graph import (
    CoefficientKind,
    build_graph,
    clustering_coefficient,
    deletion_experiment,
    scores_for_measure,
)
from wtps.model import EventKind
from wtps.scoring import unit_weights
from wtps.stats import interval_sweep, ols_line, pearson
from conftest import COMMUNITY_SAMPLE, FOLLOWER_SAMPLE
from synth import (
    make_bipartite_graph,
    make_corpus,
    make_heavy_tailed_corpus,
    overlap_oracle,
    scale_events,
)

# --- independent oracles ----------------------------------------------------


def exact_weight_rows(binned):
    """Exact rational per-interval shares of community fork/star deltas."""
    fork_cols = [int(c) for c in binned.interval_totals(EventKind.FORK)]
    star_cols = [int(c) for c in binned.interval_totals(EventKind.STAR)]
    fork_total, star_total = sum(fork_cols), sum(star_cols)
    wf = [Fraction(c, fork_total) if fork_total > 0 else Fraction(0) for c in fork_cols]
    ws = [Fraction(c, star_total) if star_total > 0 else Fraction(0) for c in star_cols]
    return wf, ws


def exact_scores(binned):
    """Exact rational per-interval and overall scores for every repository."""
    wf, ws = exact_weight_rows(binned)
    out = {}
    for rid in binned.repo_ids:
        forks = binned.deltas(rid, EventKind.FORK)
        stars = binned.deltas(rid, EventKind.STAR)
        per_interval = [
            wf[t] * int(forks[t]) + ws[t] * int(stars[t])
            for t in range(binned.interval_count)
        ]
        out[rid] = (per_interval, sum(per_interval))
    return out


def normal_equations(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    system = np.array([[n, x.sum()], [x.sum(), (x * x).sum()]])
    rhs = np.array([y.sum(), (x * y).sum()])
    intercept, slope = np.linalg.solve(system, rhs)
    return slope, intercept


# Hand-derivable weight rows for the bundled 4-repo sample.
GOLDEN_FORK_WEIGHTS = [Fraction(c, 200) for c in (44, 50, 22, 27, 57)]
GOLDEN_STAR_WEIGHTS = [Fraction(c, 180) for c in (25, 34, 22, 55, 44)]

# Two-decimal reference scores the sample was built around; exact evaluation
# agrees with them only up to their rounding drift (documented bounds below).
ROUNDED_REFERENCE_CELLS = {
    "R1": [4.08, 7.25, 0.57, 5.71, 4.43],
    "R2": [2.98, 3.44, 1.28, 1.9, 10.5],
    "R3": [1.23, 2.56, 0.92, 7.93, 9.15],
    "R4": [4.64, 5.63, 2.32, 4.57, 2.89],
}
ROUNDED_REFERENCE_TOTALS = {"R1": 22.04, "R2": 20.1, "R3": 21.79, "R4": 20.05}


def test_criterion_1_golden_weights():
    """golden weights: sample weight rows are exact rationals (1e-12, <1s)"""
    start = time.perf_counter()
    corpus = load_corpus(COMMUNITY_SAMPLE, interval_days=30)
    table = compute_weights(bin_events(corpus))
    elapsed = time.perf_counter() - start
    for got, want in zip(table.fork_weights, GOLDEN_FORK_WEIGHTS):
        assert abs(got - float(want)) <= 1e-12
    for got, want in zip(table.star_weights, GOLDEN_STAR_WEIGHTS):
        assert abs(got - float(want)) <= 1e-12
    assert abs(sum(table.fork_weights) - 1.0) <= 1e-12
    assert abs(sum(table.star_weights) - 1.0) <= 1e-12
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_golden_scores():
    """golden scores: overall matches exact recomputation (1e-9) and the
    rounded reference table within 0.15/cell, 0.25/total (<1s)"""
    start = time.perf_counter()
    corpus = load_corpus(COMMUNITY_SAMPLE, interval_days=30)
    binned = bin_events(corpus)
    table = compute_weights(binned)
    cards = {c.repo_id: c for c in score_all(binned, table)}
    elapsed = time.perf_counter() - start

    oracle = exact_scores(binned)
    for rid, card in cards.items():
        per_interval, total = oracle[rid]
        for got, want in zip(card.interval_scores, per_interval):
            assert abs(got - float(want)) <= 1e-9
        assert abs(card.overall - float(total)) <= 1e-9

    for rid, card in cards.items():
        for got, reference in zip(card.interval_scores, ROUNDED_REFERENCE_CELLS[rid]):
            assert abs(got - reference) <= 0.15, (rid, got, reference)
        assert abs(card.overall - ROUNDED_REFERENCE_TOTALS[rid]) <= 0.25
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_weights_one_identity():
    """weights-one identity: unit weights collapse scores to raw totals"""
    corpus = load_corpus(COMMUNITY_SAMPLE, interval_days=30)
    binned = bin_events(corpus)
    cards = {c.repo_id: c for c in score_all(binned, unit_weights(binned.interval_count))}
    for record in corpus.repos:
        assert cards[record.repo_id].overall == record.forks_total + record.stars_total
    assert cards["R1"].overall == 99


def test_criterion_4_rank_reproduction():
    """rank reproduction: fork/star orders exact; score order follows the
    exact recomputation, with the rounded-total near-tie logged"""
    corpus = load_corpus(COMMUNITY_SAMPLE, interval_days=30)
    fork_order = [e.repo_id for e in rank(corpus, Indicator.FORKS)]
    star_order = [e.repo_id for e in rank(corpus, Indicator.STARS)]
    assert fork_order == ["R2", "R1", "R4", "R3"]
    assert star_order == ["R4", "R3", "R1", "R2"]

    binned = bin_events(corpus)
    oracle_totals = {rid: total for rid, (_, total) in exact_scores(binned).items()}
    oracle_order = sorted(oracle_totals, key=lambda r: (-oracle_totals[r], r))
    got_order = [e.repo_id for e in rank(corpus, Indicator.WTPS)]
    assert got_order == oracle_order == ["R1", "R3", "R4", "R2"]

    # The rounded reference totals order the R2/R4 near-tie the other way;
    # exact recomputation is authoritative. Logged, not hidden:
    rounded_order = sorted(
        ROUNDED_REFERENCE_TOTALS, key=lambda r: -ROUNDED_REFERENCE_TOTALS[r]
    )
    assert rounded_order == ["R1", "R3", "R2", "R4"]
    print(
        "near-tie note: rounded reference totals order R2 before R4 "
        f"({ROUNDED_REFERENCE_TOTALS['R2']} vs {ROUNDED_REFERENCE_TOTALS['R4']}); "
        "exact recomputation orders R4 before R2 "
        f"({float(oracle_totals['R4']):.4f} vs {float(oracle_totals['R2']):.4f})"
    )


def test_criterion_5_normalization_and_scale_covariance():
    """normalization + scale covariance on 1000 random corpora (<30s)"""
    start = time.perf_counter()
    for seed in range(1000):
        rng = random.Random(seed)
        corpus = make_corpus(
            rng,
            n_repos=rng.randint(2, 12),
            n_intervals=rng.randint(1, 6),
            max_delta=rng.choice((3, 10, 25)),
            allow_negative=seed % 7 == 0,
        )
        binned = bin_events(corpus)
        table = compute_weights(binned)
        fork_total = int(binned.interval_totals(EventKind.FORK).sum())
        star_total = int(binned.interval_totals(EventKind.STAR).sum())
        if fork_total > 0:
            assert abs(sum(table.fork_weights) - 1.0) <= 1e-9
        else:
            assert table.fork_weights == (0.0,) * binned.interval_count
        if star_total > 0:
            assert abs(sum(table.star_weights) - 1.0) <= 1e-9
        else:
            assert table.star_weights == (0.0,) * binned.interval_count

        k = rng.choice((2, 4, 8))
        scaled = scale_events(corpus, k)
        scaled_binned = bin_events(scaled)
        assert compute_weights(scaled_binned) == table
        base_cards = score_all(binned, table)
        scaled_cards = score_all(scaled_binned, compute_weights(scaled_binned))
        for base_card, scaled_card in zip(base_cards, scaled_cards):
            assert scaled_card.overall == k * base_card.overall
        assert [e.repo_id for e in rank(corpus, Indicator.WTPS)] == [
            e.repo_id for e in rank(scaled, Indicator.WTPS)
        ]

        if seed % 100 == 0:  # non-power-of-two spot check at tolerance
            tripled = scale_events(corpus, 3)
            tripled_cards = score_all(bin_events(tripled),
                                      compute_weights(bin_events(tripled)))
            for base_card, big_card in zip(base_cards, tripled_cards):
                assert big_card.overall == pytest.approx(
                    3 * base_card.overall, rel=1e-9, abs=1e-9
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_6_statistics_oracle():
    """statistics oracle: pearson/ols agree with brute-force normal equations
    to 1e-9 on 100 random instances (published-corpus rows need the original
    snapshot, which is not bundled; oracle equivalence satisfies this)"""
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(3, 200)
        spread = rng.choice((1.0, 10.0, 100.0))
        x = [rng.uniform(-spread, spread) for _ in range(n)]
        slope_true = rng.uniform(-30, 30)
        noise = rng.choice((0.0, 0.5, 5.0))
        y = [slope_true * xi + rng.gauss(0, noise) + rng.uniform(-1, 1) for xi in x]
        result = ols_line(x, y)
        slope, intercept = normal_equations(x, y)
        assert result.slope == pytest.approx(slope, rel=1e-9, abs=1e-9)
        assert result.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)
        assert pearson(x, y) == pytest.approx(
            float(np.corrcoef(x, y)[0, 1]), rel=1e-9, abs=1e-9
        )
    print("published-snapshot regression rows not reproducible without the "
          "original 36k-repo capture; oracle equivalence branch applies")


def test_criterion_7_interval_robustness():
    """interval robustness: score-stars correlation varies < 0.05 across
    30/21/14/7-day widths on a 200-repo synthetic corpus (<60s)"""
    start = time.perf_counter()
    corpus = make_heavy_tailed_corpus(random.Random(42), n_repos=200)
    entries = interval_sweep(corpus, [30, 21, 14, 7])
    stars_r = [
        e.pearson_r for e in entries if e.indicator is Indicator.STARS
    ]
    elapsed = time.perf_counter() - start
    assert len(stars_r) == 4
    spread = max(stars_r) - min(stars_r)
    assert spread < 0.05, f"spread {spread:.4f}"
    print(f"score-stars correlation spread across widths: {spread:.5f} "
          f"(r values {['%.4f' % r for r in stars_r]})")
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_8_graph_invariants():
    """graph invariants: zero transitivity on bipartite graphs, overlap
    coefficient equals the exhaustive oracle (1e-12), deterministic deletion
    ordered by stars; coefficient trend reported, not asserted"""
    for seed in range(40):
        rng = random.Random(seed)
        graph = make_bipartite_graph(
            rng,
            n_repos=rng.randint(1, 9),
            n_followers=rng.randint(1, 11),
            edge_prob=rng.uniform(0.05, 0.9),
        )
        assert clustering_coefficient(graph, CoefficientKind.GLOBAL_TRANSITIVITY) == 0.0

    follower_corpus = load_corpus(FOLLOWER_SAMPLE, interval_days=30)
    graph = build_graph(follower_corpus)
    got = clustering_coefficient(graph, CoefficientKind.BIPARTITE_LATAPY)
    assert got == pytest.approx(overlap_oracle(graph), abs=1e-12)
    assert got == pytest.approx(61 / 126, abs=1e-12)

    stars = scores_for_measure(follower_corpus, Indicator.STARS)
    series_a = deletion_experiment(graph, stars, steps=3, measure=Indicator.STARS)
    series_b = deletion_experiment(graph, stars, steps=3, measure=Indicator.STARS)
    assert series_a == series_b
    expected_order = sorted(stars, key=lambda rid: (-stars[rid], rid))
    assert list(series_a.removed) == expected_order

    decreasing = all(
        later <= earlier for earlier, later in zip(series_a.values, series_a.values[1:])
    )
    print(f"deletion series values: {['%.4f' % v for v in series_a.values]} "
          f"(monotonically decreasing: {decreasing})")


def test_criterion_9_round_trip(tmp_path):
    """round trip: save -> load is the identity on 100 random corpora and
    re-saving is byte-identical"""
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        corpus = make_corpus(
            rng,
            n_repos=rng.randint(1, 15),
            n_intervals=rng.randint(1, 6),
            unit_events=seed % 3 == 0,
            allow_negative=seed % 4 == 0,
            follower_pool=rng.randint(0, 8),
        )
        first = tmp_path / f"corpus_{seed}_a.jsonl"
        second = tmp_path / f"corpus_{seed}_b.jsonl"
        save_corpus(corpus, first)
        loaded = load_corpus(first, interval_days=corpus.grid.interval_days)
        assert loaded == corpus
        save_corpus(loaded, second)
        assert first.read_bytes() == second.read_bytes()
