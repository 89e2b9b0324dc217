"""Seeded generators for synthetic corpora and bipartite graphs.

Everything here is deterministic given the caller's random.Random instance,
so property-style loops stay reproducible without any global seeding.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from wtps.graph import CoefficientKind, FollowerGraph
from wtps.model import Corpus, EventKind, PopularityEvent, RepoRecord, replace

BASE_TS = 1_514_764_800  # 2018-01-01T00:00:00Z
DAY = 86_400

_LANGUAGES = (None, "Python", "JavaScript", "Go", "Rust", "C")


def make_corpus(
    rng: random.Random,
    n_repos: int = 8,
    n_intervals: int = 5,
    interval_days: int = 30,
    max_delta: int = 20,
    unit_events: bool = False,
    allow_negative: bool = False,
    follower_pool: int = 0,
) -> Corpus:
    """Random corpus whose snapshot totals agree with its event streams."""
    pool = [f"u{i}" for i in range(follower_pool)]
    repos = []
    events = []
    for i in range(n_repos):
        rid = f"repo{i:04d}"
        fork_sum = 0
        star_sum = 0
        for t in range(n_intervals):
            start = BASE_TS + t * interval_days * DAY
            for kind in (EventKind.FORK, EventKind.STAR):
                count = rng.randint(0, max_delta)
                if count == 0:
                    continue
                if allow_negative and rng.random() < 0.2:
                    count = -count
                if kind is EventKind.FORK:
                    fork_sum += count
                else:
                    star_sum += count
                if unit_events:
                    step = 1 if count > 0 else -1
                    for _ in range(abs(count)):
                        ts = start + rng.randrange(interval_days * DAY)
                        events.append(PopularityEvent(rid, kind, ts, step))
                else:
                    ts = start + rng.randrange(interval_days * DAY)
                    events.append(PopularityEvent(rid, kind, ts, count))
        followers = ()
        if pool:
            followers = tuple(rng.sample(pool, k=rng.randint(0, min(5, len(pool)))))
        repos.append(
            RepoRecord(
                repo_id=rid,
                full_name=f"org{i % 7}/{rid}",
                created_at=BASE_TS,
                primary_language=rng.choice(_LANGUAGES),
                size_kb=rng.randint(0, 5000),
                owner_followers=rng.randint(0, 300),
                forks_total=max(0, fork_sum),
                stars_total=max(0, star_sum),
                watchers_total=rng.randint(0, 50),
                follower_ids=followers,
            )
        )
    if not events:
        events.append(PopularityEvent(repos[0].repo_id, EventKind.STAR, BASE_TS, 1))
        repos[0] = replace(repos[0], stars_total=repos[0].stars_total + 1)
    return Corpus.build(repos, events, interval_days=interval_days)


def scale_events(corpus: Corpus, k: int) -> Corpus:
    """Multiply every event delta by a positive integer constant."""
    assert k > 0
    scaled = tuple(
        PopularityEvent(e.repo_id, e.kind, e.occurred_at, e.delta * k)
        for e in corpus.events
    )
    return Corpus(
        repos=corpus.repos,
        events=scaled,
        grid=corpus.grid,
        captured_at=corpus.captured_at,
    )


def make_heavy_tailed_corpus(
    rng: random.Random,
    n_repos: int = 200,
    span_days: int = 360,
    window_days: int = 30,
) -> Corpus:
    """Corpus with heavy-tailed per-repo activity for robustness checks.

    Per-repo intensity follows a Pareto draw, so a few repositories dominate
    the totals the way popular repositories dominate real communities.
    """
    repos = []
    events = []
    for i in range(n_repos):
        rid = f"repo{i:04d}"
        star_rate = min(400.0, rng.paretovariate(1.3) * 4.0)
        fork_rate = star_rate * rng.uniform(0.1, 0.5)
        fork_sum = 0
        star_sum = 0
        for window_start in range(0, span_days, window_days):
            start = BASE_TS + window_start * DAY
            stars = int(rng.uniform(0.5, 1.5) * star_rate * window_days / span_days * 4)
            forks = int(rng.uniform(0.5, 1.5) * fork_rate * window_days / span_days * 4)
            if stars > 0:
                ts = start + rng.randrange(window_days * DAY)
                events.append(PopularityEvent(rid, EventKind.STAR, ts, stars))
                star_sum += stars
            if forks > 0:
                ts = start + rng.randrange(window_days * DAY)
                events.append(PopularityEvent(rid, EventKind.FORK, ts, forks))
                fork_sum += forks
        repos.append(
            RepoRecord(
                repo_id=rid,
                full_name=f"org{i % 13}/{rid}",
                created_at=BASE_TS,
                primary_language=rng.choice(_LANGUAGES),
                size_kb=rng.randint(1, 9000),
                owner_followers=rng.randint(0, 500),
                forks_total=fork_sum,
                stars_total=star_sum,
                watchers_total=max(0, int(star_sum * 0.7) + rng.randint(-3, 3)),
                follower_ids=(),
            )
        )
    return Corpus.build(repos, events, interval_days=30)


def make_bipartite_graph(
    rng: random.Random,
    n_repos: int = 6,
    n_followers: int = 8,
    edge_prob: float = 0.35,
) -> FollowerGraph:
    repos = [f"r{i}" for i in range(n_repos)]
    followers = [f"f{i}" for i in range(n_followers)]
    edges = {
        (r, f)
        for r in repos
        for f in followers
        if rng.random() < edge_prob
    }
    return FollowerGraph(
        repo_nodes=frozenset(repos),
        follower_nodes=frozenset(followers),
        edges=frozenset(edges),
    )


def overlap_oracle(g: FollowerGraph) -> float:
    """Exhaustive pairwise-overlap enumeration, independent of the library.

    Walks every node, finds its same-side distance-2 peers by brute force,
    and averages |N(u) & N(v)| / |N(u) | N(v)| with exact fractions.
    """
    repo_adj = {r: set() for r in g.repo_nodes}
    follower_adj = {f: set() for f in g.follower_nodes}
    for repo, follower in g.edges:
        repo_adj[repo].add(follower)
        follower_adj[follower].add(repo)

    per_node = []
    for side in (repo_adj, follower_adj):
        for u in sorted(side):
            # distance-2 peers: same-side nodes sharing at least one neighbor
            peers = sorted(
                v for v in side if v != u and side[u] & side[v]
            )
            if not peers:
                per_node.append(Fraction(0))
                continue
            total = sum(
                Fraction(len(side[u] & side[v]), len(side[u] | side[v]))
                for v in peers
            )
            per_node.append(total / len(peers))
    return float(sum(per_node) / len(per_node))


def fsum_overlap_reference(g: FollowerGraph) -> float:
    """The overlap coefficient by a plain fsum over every node's 2-paths.

    This is the library's former kernel, kept verbatim as a bit-exact
    reference for the twin-class kernel: both must give the same double.
    """
    return _bipartite_overlap(*_adjacency(g), CoefficientKind.BIPARTITE_LATAPY)


def _adjacency(g: FollowerGraph) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Neighbor sets per repo node and per follower node, isolated nodes included."""
    repo_adj: dict[str, set[str]] = {r: set() for r in g.repo_nodes}
    follower_adj: dict[str, set[str]] = {f: set() for f in g.follower_nodes}
    for repo, follower in g.edges:
        repo_adj[repo].add(follower)
        follower_adj[follower].add(repo)
    return repo_adj, follower_adj


def _bipartite_overlap(
    repo_adj: dict[str, set[str]],
    follower_adj: dict[str, set[str]],
    kind: CoefficientKind,
) -> float:
    """Mean over all nodes of the pairwise neighbor-overlap coefficient.

    Per node u, cc(u) averages |N(u) & N(v)| / |N(u) | N(v)| over the
    same-side nodes v at distance 2 from u; nodes with no such neighbors
    (including isolated ones) contribute 0. Walking u's 2-paths counts
    shared[v] = |N(u) & N(v)|; the union is deg(u) + deg(v) - shared[v].
    fsum keeps the result identical regardless of iteration order. The
    triangle-based kinds and a graph with no nodes give 0.0.
    """
    if kind is not CoefficientKind.BIPARTITE_LATAPY:
        return 0.0
    values = []
    for side, other in ((repo_adj, follower_adj), (follower_adj, repo_adj)):
        for node, neighborhood in side.items():
            shared: dict[str, int] = {}
            for middle in neighborhood:
                for peer in other[middle]:
                    shared[peer] = shared.get(peer, 0) + 1
            shared.pop(node, None)
            if not shared:
                values.append(0.0)
                continue
            overlaps = math.fsum(
                count / (len(neighborhood) + len(side[peer]) - count)
                for peer, count in shared.items()
            )
            values.append(overlaps / len(shared))
    return math.fsum(values) / len(values) if values else 0.0
