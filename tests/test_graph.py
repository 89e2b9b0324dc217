import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from wtps import EmptyGraph, Indicator, StepsExceedRepoCount
from wtps.graph import (
    CoefficientKind,
    FollowerGraph,
    _exact,
    build_graph,
    clustering_coefficient,
    deletion_experiment,
    format_edge_list,
    scores_for_measure,
)
from wtps.model import Corpus
from wtps.scoring import rank
from synth import fsum_overlap_reference, make_bipartite_graph, overlap_oracle

# Exhaustively precomputed overlap coefficient for the shipped 3-repo sample
# (see synth.overlap_oracle): mean of per-node overlap means = 61/126.
FOLLOWER_SAMPLE_OVERLAP = Fraction(61, 126)


def _graph(adjacency: dict[str, list[str]], *isolated_followers: str) -> FollowerGraph:
    """Graph from each repo's followers, plus followers with no repo."""
    edges = {(repo, f) for repo, followers in adjacency.items() for f in followers}
    followers = {f for _, f in edges} | set(isolated_followers)
    return FollowerGraph(frozenset(adjacency), frozenset(followers), frozenset(edges))


def _two_hubs(a: int, b: int) -> FollowerGraph:
    """Repos of degree a and b sharing one follower: the hub pair's union is
    a + b - 1, up to 2 * max degree - 1."""
    return _graph({"h0": ["shared", *(f"a{i}" for i in range(a - 1))],
                   "h1": ["shared", *(f"b{i}" for i in range(b - 1))]})


# Graphs at the edges of the overlap kernel's integer scale and pair walk.
# The hub degrees sit around 256 and 1024; for 255/255, 257/261, 1020/1023
# and 1024/1028 the hub term fl(1/u) has an odd 53-bit mantissa in the
# lowest binade the scale allows, so it needs all but one bit of the scale.
SCALE_BOUND_GRAPHS = {
    **{f"hubs-{a}-{b}": _two_hubs(a, b) for a, b in
       [(255, 255), (256, 256), (257, 257), (257, 261),
        (1020, 1023), (1023, 1024), (1024, 1028)]},
    # r0/r1 and r2/r3 are repo twins; f1/f5 and f4/f6 are follower twins.
    "twins": _graph({"r0": ["f0", "f1", "f2", "f5"], "r1": ["f0", "f1", "f2", "f5"],
                     "r2": ["f2", "f3"], "r3": ["f2", "f3"],
                     "r4": ["f0", "f3", "f4", "f6"]}),
    "edgeless": _graph({"r0": [], "r1": []}, "f0"),
    "isolated": _graph({"r0": ["f0", "f1"], "r1": ["f1"], "r2": []}, "f2", "f3"),
}


def _pareto_graph(rng: random.Random) -> FollowerGraph:
    """60 repos, 240 followers with Pareto(1.5) follower degrees."""
    repos = [f"r{i}" for i in range(60)]
    followers = [f"f{i}" for i in range(240)]
    edges = {
        (repo, follower)
        for follower in followers
        for repo in rng.sample(repos, min(len(repos), int(rng.paretovariate(1.5))))
    }
    return FollowerGraph(frozenset(repos), frozenset(followers), frozenset(edges))


@pytest.fixture()
def sample_graph(follower_corpus):
    return build_graph(follower_corpus)


class TestBuildGraph:
    def test_sample_topology(self, sample_graph):
        assert sample_graph.node_count == 7
        assert sample_graph.edge_count == 8
        edges = sample_graph.edges
        assert {r for r, f in edges if f == "f2"} == {"R1", "R2", "R3"}
        assert {f for r, f in edges if r == "R1"} == {"f1", "f2", "f4"}

    def test_no_follower_data_gives_edgeless_graph(self, community_corpus):
        graph = build_graph(community_corpus)
        assert graph.repo_nodes == {"R1", "R2", "R3", "R4"}
        assert graph.follower_nodes == frozenset()
        assert graph.edge_count == 0

    def test_shared_owner_means_identical_neighborhoods(self, follower_corpus):
        from dataclasses import replace

        twin_source = follower_corpus.repos[0]
        twin = replace(twin_source, repo_id="R9", full_name="orchard/alpha-mirror")
        corpus = type(follower_corpus)(
            repos=follower_corpus.repos + (twin,),
            events=follower_corpus.events,
            grid=follower_corpus.grid,
            captured_at=follower_corpus.captured_at,
        )
        graph = build_graph(corpus)
        def followers(rid):
            return {f for r, f in graph.edges if r == rid}

        assert followers("R9") == followers("R1") == {"f1", "f2", "f4"}

    def test_edges_must_reference_known_nodes(self):
        with pytest.raises(ValueError):
            FollowerGraph(
                repo_nodes=frozenset({"r1"}),
                follower_nodes=frozenset(),
                edges=frozenset({("r1", "f1")}),
            )


class TestClusteringCoefficients:
    def test_transitivity_zero_on_sample(self, sample_graph):
        value = clustering_coefficient(sample_graph, CoefficientKind.GLOBAL_TRANSITIVITY)
        assert value == 0.0

    @staticmethod
    def _random_graph(seed: int) -> FollowerGraph:
        rng = random.Random(seed)
        return make_bipartite_graph(
            rng,
            n_repos=rng.randint(1, 8),
            n_followers=rng.randint(1, 10),
            edge_prob=rng.uniform(0.1, 0.9),
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_triangle_based_kinds_zero_on_random_bipartite(self, seed):
        graph = self._random_graph(seed)
        assert clustering_coefficient(graph, CoefficientKind.GLOBAL_TRANSITIVITY) == 0.0
        assert clustering_coefficient(graph, CoefficientKind.AVERAGE_LOCAL) == 0.0

    @staticmethod
    def _networkx_graph(nx, graph: FollowerGraph):
        # Tag nodes by side: a repo id and a follower id may share text.
        g = nx.Graph()
        g.add_nodes_from(("r", r) for r in graph.repo_nodes)
        g.add_nodes_from(("f", f) for f in graph.follower_nodes)
        g.add_edges_from((("r", r), ("f", f)) for r, f in graph.edges)
        return g

    @pytest.mark.parametrize("seed", range(10))
    def test_triangle_based_kinds_match_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        graph = self._random_graph(seed)
        g = self._networkx_graph(nx, graph)
        assert clustering_coefficient(graph, CoefficientKind.GLOBAL_TRANSITIVITY) == (
            nx.transitivity(g)
        )
        assert clustering_coefficient(graph, CoefficientKind.AVERAGE_LOCAL) == (
            nx.average_clustering(g)
        )

    def test_average_local_zero_on_single_edge(self):
        graph = FollowerGraph(
            repo_nodes=frozenset({"r"}),
            follower_nodes=frozenset({"f"}),
            edges=frozenset({("r", "f")}),
        )
        assert clustering_coefficient(graph, CoefficientKind.AVERAGE_LOCAL) == 0.0

    def test_overlap_matches_exhaustive_oracle_on_sample(self, sample_graph):
        got = clustering_coefficient(sample_graph, CoefficientKind.BIPARTITE_LATAPY)
        assert got == pytest.approx(overlap_oracle(sample_graph), abs=1e-12)
        assert got == pytest.approx(float(FOLLOWER_SAMPLE_OVERLAP), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_overlap_matches_oracle_on_random_graphs(self, seed):
        rng = random.Random(100 + seed)
        graph = make_bipartite_graph(
            rng,
            n_repos=rng.randint(1, 7),
            n_followers=rng.randint(1, 9),
            edge_prob=rng.uniform(0.1, 0.8),
        )
        got = clustering_coefficient(graph, CoefficientKind.BIPARTITE_LATAPY)
        assert got == pytest.approx(overlap_oracle(graph), abs=1e-12)
        assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_overlap_matches_networkx_on_heavy_tailed_graphs(self, seed):
        # Pareto(1.5) follower degrees reach hub followers and peer counts
        # far beyond the small dense graphs above.
        nx = pytest.importorskip("networkx")
        graph = _pareto_graph(random.Random(seed))
        expected = nx.algorithms.bipartite.average_clustering(
            self._networkx_graph(nx, graph), mode="dot"
        )
        got = clustering_coefficient(graph, CoefficientKind.BIPARTITE_LATAPY)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_graph_rejected(self):
        empty = FollowerGraph(frozenset(), frozenset(), frozenset())
        with pytest.raises(EmptyGraph):
            clustering_coefficient(empty, CoefficientKind.BIPARTITE_LATAPY)

    @pytest.mark.parametrize("x", [0.0, 5e-324, sys.float_info.min, 1 / 3, 1.0])
    def test_exact_int_round_trips(self, x):
        assert _exact(x) / (1 << 1074) == x


class TestDeletionExperiment:
    def _star_scores(self, follower_corpus):
        return scores_for_measure(follower_corpus, Indicator.STARS)

    def test_highest_stars_removed_first(self, sample_graph, follower_corpus):
        scores = self._star_scores(follower_corpus)
        assert scores == {"R1": 45.0, "R2": 30.0, "R3": 50.0}
        series = deletion_experiment(
            sample_graph, scores, steps=1, measure=Indicator.STARS
        )
        assert series.removed == ("R3",)
        assert len(series.values) == 2
        assert series.values[0] == pytest.approx(float(FOLLOWER_SAMPLE_OVERLAP), abs=1e-12)

    def test_removed_order_equals_sorted_star_order(self, sample_graph, follower_corpus):
        scores = self._star_scores(follower_corpus)
        series = deletion_experiment(
            sample_graph, scores, steps=3, measure=Indicator.STARS
        )
        expected = sorted(scores, key=lambda rid: (-scores[rid], rid))
        assert list(series.removed) == expected == ["R3", "R1", "R2"]

    def test_full_deletion_reaches_zero_coefficient(self, sample_graph, follower_corpus):
        scores = self._star_scores(follower_corpus)
        series = deletion_experiment(sample_graph, scores, steps=3)
        assert len(series.values) == 4
        assert series.values[-1] == 0.0

    def test_deterministic_series(self, sample_graph, follower_corpus):
        scores = self._star_scores(follower_corpus)
        first = deletion_experiment(sample_graph, scores, steps=3)
        second = deletion_experiment(sample_graph, scores, steps=3)
        assert first == second

    def test_ties_break_by_repo_id(self, sample_graph):
        series = deletion_experiment(
            sample_graph, {"R1": 1.0, "R2": 1.0, "R3": 1.0}, steps=3
        )
        assert list(series.removed) == ["R1", "R2", "R3"]

    def test_followers_retained_and_bipartite_preserved(self, sample_graph, follower_corpus):
        scores = self._star_scores(follower_corpus)
        current = sample_graph
        for rid in sorted(scores, key=lambda r: (-scores[r], r)):
            current = current.remove_repo(rid)
            assert current.follower_nodes == sample_graph.follower_nodes
            for repo, follower in current.edges:
                assert repo in current.repo_nodes
                assert follower in current.follower_nodes
        assert current.repo_nodes == frozenset()
        assert current.edge_count == 0

    def test_steps_beyond_repo_count_rejected(self, sample_graph, follower_corpus):
        with pytest.raises(StepsExceedRepoCount):
            deletion_experiment(sample_graph, self._star_scores(follower_corpus), steps=4)

    def test_missing_scores_rejected(self, sample_graph):
        with pytest.raises(ValueError):
            deletion_experiment(sample_graph, {"R1": 1.0}, steps=1)

    @pytest.mark.parametrize("seed", range(5))
    def test_long_series_on_heavy_tailed_graphs_equals_reference(self, seed):
        # Hub followers and follower twins, over 25 removals.
        rng = random.Random(seed)
        graph = _pareto_graph(rng)
        scores = {r: float(rng.randint(0, 20)) for r in sorted(graph.repo_nodes)}
        series = deletion_experiment(graph, scores, steps=25)
        expected = [fsum_overlap_reference(graph)]
        current = graph
        for repo in series.removed:
            current = current.remove_repo(repo)
            expected.append(fsum_overlap_reference(current))
        assert list(series.values) == expected

    @pytest.mark.parametrize("name", SCALE_BOUND_GRAPHS)
    def test_every_step_equals_reference_at_the_scale_bound(self, name):
        # The hub pairs' terms 1/(a + b - 1) need the whole scale around
        # powers of two; every class pair is walked from its lower index.
        graph = SCALE_BOUND_GRAPHS[name]
        order = sorted(graph.repo_nodes)
        scores = {repo: -i for i, repo in enumerate(order)}
        series = deletion_experiment(graph, scores, steps=len(order))
        assert list(series.removed) == order
        expected = [fsum_overlap_reference(graph)]
        for repo in order:
            graph = graph.remove_repo(repo)
            expected.append(fsum_overlap_reference(graph))
        assert list(series.values) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, sample_graph, bad):
        # NaN does not order, so the removal order would follow set iteration.
        with pytest.raises(ValueError, match="R2"):
            deletion_experiment(sample_graph, {"R1": 1.0, "R2": bad, "R3": 2.0}, steps=1)

    def test_huge_int_scores_are_ordered_exactly(self, sample_graph):
        # The finiteness check compares: float(10**400) would overflow.
        series = deletion_experiment(
            sample_graph, {"R1": 10**400, "R2": 10**400 + 1, "R3": 0}, steps=3
        )
        assert series.removed == ("R2", "R1", "R3")

    def test_removal_order_equals_rank_order_above_2_53(self, follower_corpus):
        # 2**53 and 2**53 + 1 are one double; the counts stay exact ints.
        stars = {"R1": 2**53, "R2": 2**53 + 1}
        corpus = Corpus(
            repos=[replace(r, stars_total=stars.get(r.repo_id, r.stars_total))
                   for r in follower_corpus.repos],
            events=follower_corpus.events,
            grid=follower_corpus.grid,
            captured_at=follower_corpus.captured_at,
        )
        scores = scores_for_measure(corpus, Indicator.STARS)
        series = deletion_experiment(build_graph(corpus), scores, steps=3)
        ranked = [entry.repo_id for entry in rank(corpus, Indicator.STARS)]
        assert list(series.removed) == ranked == ["R2", "R1", "R3"]

    def test_series_json_round_trip(self, sample_graph, follower_corpus):
        series = deletion_experiment(
            sample_graph,
            self._star_scores(follower_corpus),
            steps=2,
            kind=CoefficientKind.BIPARTITE_LATAPY,
            measure=Indicator.STARS,
        )
        payload = series.to_json_dict()
        assert payload["measure"] == "stars"
        assert payload["coefficient_kind"] == "bipartite_latapy"
        assert len(payload["values"]) == 3
        assert payload["removed"] == ["R3", "R1"]


class TestEdgeListExport:
    def test_sorted_pairs_one_per_line(self, sample_graph):
        text = format_edge_list(sample_graph)
        lines = text.strip().splitlines()
        assert len(lines) == 8
        assert lines == sorted(lines)
        assert lines[0] == "R1 f1"

    def test_empty_graph_exports_empty_text(self):
        graph = FollowerGraph(frozenset({"r"}), frozenset(), frozenset())
        assert format_edge_list(graph) == ""
