"""Bipartite repository-follower graph, clustering coefficients, and the
popularity-ordered node-deletion experiment.

The graph links each repository to its owner's followers and nothing else,
so it is strictly bipartite: triangle-based clustering coefficients are
identically zero on it and are returned as 0.0 without counting (the test
suite checks that against networkx on randomized graphs). The pairwise
neighbor-overlap coefficient is the nonzero notion of clustering for
two-mode graphs and is the default for deletion experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import EmptyGraph, StepsExceedRepoCount
from .model import Corpus
from .scoring import Indicator, WeightTable, rank


class CoefficientKind(Enum):
    """Clustering-coefficient definitions supported on the follower graph."""

    GLOBAL_TRANSITIVITY = "global_transitivity"
    AVERAGE_LOCAL = "average_local"
    BIPARTITE_LATAPY = "bipartite_latapy"


@dataclass(frozen=True)
class FollowerGraph:
    """Strictly bipartite graph between repositories and owner-followers.

    Edges always pair a repo node with a follower node, so duplicate edges
    and odd cycles cannot exist. The two node namespaces are independent: a
    repo id and a follower id with the same text are distinct nodes.
    """

    repo_nodes: frozenset[str]
    follower_nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "repo_nodes", frozenset(self.repo_nodes))
        object.__setattr__(self, "follower_nodes", frozenset(self.follower_nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        for repo, follower in self.edges:
            if repo not in self.repo_nodes:
                raise ValueError(f"edge references unknown repo node {repo!r}")
            if follower not in self.follower_nodes:
                raise ValueError(
                    f"edge references unknown follower node {follower!r}"
                )

    @property
    def node_count(self) -> int:
        return len(self.repo_nodes) + len(self.follower_nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def remove_repo(self, repo_id: str) -> "FollowerGraph":
        """Drop one repo node and its incident edges.

        Followers left without neighbors stay in the graph; keeping the node
        population stable is a documented choice that affects node-averaged
        coefficients.
        """
        if repo_id not in self.repo_nodes:
            raise ValueError(f"{repo_id!r} is not a repo node")
        return FollowerGraph(
            repo_nodes=self.repo_nodes - {repo_id},
            follower_nodes=self.follower_nodes,
            edges=frozenset(e for e in self.edges if e[0] != repo_id),
        )


def build_graph(corpus: Corpus) -> FollowerGraph:
    """Link every repository to each of its owner's followers."""
    edges = frozenset((r.repo_id, f) for r in corpus.repos for f in r.follower_ids)
    return FollowerGraph(
        repo_nodes=frozenset(corpus.repo_ids),
        follower_nodes=frozenset(follower for _, follower in edges),
        edges=edges,
    )


def clustering_coefficient(g: FollowerGraph, kind: CoefficientKind) -> float:
    """Compute the requested clustering coefficient of the whole graph.

    The triangle-based kinds are 0.0: a FollowerGraph has no triangles.

    Raises:
        EmptyGraph: the graph has no nodes at all.
    """
    if g.node_count == 0:
        raise EmptyGraph("coefficient undefined on a graph with no nodes")
    return _bipartite_overlap(*_adjacency(g), kind)


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


@dataclass(frozen=True)
class DeletionSeries:
    """Coefficient trajectory of a stepwise highest-popularity deletion run.

    ``values[0]`` is the coefficient of the intact graph; one value follows
    per removed repository, so the series is always ``steps + 1`` long.
    """

    measure: Indicator
    coefficient_kind: CoefficientKind
    values: tuple[float, ...]
    removed: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure.value,
            "coefficient_kind": self.coefficient_kind.value,
            "values": list(self.values),
            "removed": list(self.removed),
        }


def deletion_experiment(
    g: FollowerGraph,
    scores: Mapping[str, float],
    steps: int,
    kind: CoefficientKind = CoefficientKind.BIPARTITE_LATAPY,
    measure: Indicator = Indicator.WTPS,
) -> DeletionSeries:
    """Repeatedly delete the top-scoring remaining repo node and re-measure.

    Ties on score break by ascending repo_id. Follower nodes never leave the
    graph, so the node population for averaged coefficients shrinks only on
    the repo side. The coefficient trend across deletions is reported, never
    asserted: a decrease is an empirical observation, not an invariant.

    Raises:
        StepsExceedRepoCount: ``steps`` exceeds the number of repo nodes.
        ValueError: a repo node is missing from ``scores``.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps > len(g.repo_nodes):
        raise StepsExceedRepoCount(
            f"{steps} deletions requested but only {len(g.repo_nodes)} repo nodes"
        )
    missing = sorted(g.repo_nodes - set(scores))
    if missing:
        raise ValueError(f"missing scores for repo nodes: {missing[:5]}")

    values = [clustering_coefficient(g, kind)]
    repo_adj, follower_adj = _adjacency(g)
    removed = sorted(g.repo_nodes, key=lambda rid: (-scores[rid], rid))[:steps]
    for target in removed:
        for follower in repo_adj.pop(target):
            follower_adj[follower].discard(target)
        values.append(_bipartite_overlap(repo_adj, follower_adj, kind))
    return DeletionSeries(
        measure=measure,
        coefficient_kind=kind,
        values=tuple(values),
        removed=tuple(removed),
    )


def format_edge_list(g: FollowerGraph) -> str:
    """Plain-text export: one sorted "repo_id follower_id" pair per line."""
    lines = [f"{repo} {follower}" for repo, follower in sorted(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


def scores_for_measure(
    corpus: Corpus, measure: Indicator, *, weights: WeightTable | None = None
) -> dict[str, float]:
    """Per-repo score mapping used to drive a deletion experiment."""
    return {
        entry.repo_id: float(entry.value)
        for entry in rank(corpus, measure, weights=weights)
    }
