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
from bisect import bisect_right
from collections import Counter
from itertools import chain
from typing import Mapping

from .errors import EmptyGraph, StepsExceedRepoCount, UnexportableNodeId
from .model import CoefficientKind, Corpus, Indicator, _set, record
from .scoring import WeightTable, _scaled, indicator_values


@record
class FollowerGraph:
    """Strictly bipartite graph between repositories and owner-followers.

    Edges always pair a repo node with a follower node, so duplicate edges
    and odd cycles cannot exist. The two node namespaces are independent: a
    repo id and a follower id with the same text are distinct nodes.
    """

    repo_nodes: frozenset[str]
    follower_nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    __slots__ = ("_overlap_memo",)  # set by ``_remember``

    def __post_init__(self) -> None:
        _set(self, repo_nodes=frozenset(self.repo_nodes),
             follower_nodes=frozenset(self.follower_nodes), edges=frozenset(self.edges))
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
    _require_nodes(g)
    if kind is not CoefficientKind.BIPARTITE_LATAPY:
        return 0.0
    return _Overlap(g).value()


def _require_nodes(g: FollowerGraph) -> None:
    if g.node_count == 0:
        raise EmptyGraph("coefficient undefined on a graph with no nodes")


# Every finite double is an integer multiple of 2**-1074, so a value scaled by
# 2**1074 is an exact int and sums of scaled values never round.
_SCALE = 1 << 1074


def _exact(x: float) -> int:
    """``x * 2**1074`` as an exact int, for a finite double ``x``."""
    return _scaled(x, 1074)


class _Overlap:
    """Pairwise-overlap coefficient of a graph, updated one repo removal at a time.

    Per node u, cc(u) averages |N(u) & N(v)| / |N(u) | N(v)| over the
    same-side nodes v at distance 2 from u; nodes with no such neighbors
    (including isolated ones) contribute 0, and the coefficient is the mean
    over all nodes. Walking u's 2-paths counts shared = |N(u) & N(v)|; the
    union is deg(u) + deg(v) - shared.

    Repos and followers are numbered by sorted id, and on each side nodes
    with identical neighbour sets form one twin class of multiplicity m.
    Classes are indexed together, repo classes first; a class's neighbours
    are whole classes of the other side, in ascending order. A member's
    peers are its m - 1 classmates (term 1.0 each, when it has neighbours)
    and the members of every other class at distance 2. The build walks each
    unordered pair of classes once, from the lower index, and credits the
    term to both ends.

    Each class keeps the exact int sum of one member's peer terms, scaled by
    ``2**shift``, and its peer count, so its value ``total / 2**shift /
    peers`` is bit for bit ``fsum(terms) / len(terms)`` (int/int division and
    fsum both round correctly). The shift is ``53 + (2 * D).bit_length()``
    for the graph's largest degree D. A union is at most 2D - 1 < 2**b for
    b = (2 * D).bit_length(), so a term fl(s/u) is at least 2**-b, and a
    double that large is a multiple of 2**(-b - 52): scaled by 2**shift it is
    an exact int. Degrees only fall as repos are removed, so the bound holds
    for every step; were it ever broken, the shift in ``_scaled`` would turn
    negative and raise rather than round. A class value can be far smaller
    than a term, so the node mean keeps one exact int total of m * value,
    scaled by 2**1074, over the classes.

    The twin classes with each class's total and peer count are the intact
    graph's state. A graph given a memo by ``_remember`` restores it from
    the memo, or builds it and hands it to the memo before any removal.
    """

    def __init__(self, g: FollowerGraph) -> None:
        memo = getattr(g, "_overlap_memo", None)
        state = memo.load() if memo is not None else None
        if state is None or not _fits(state, g):
            state = [*_twin_classes(g), None, None]
        self.class_of, self.mult, self.adj, self.deg, self.total, self.peers = state
        self.shift = 53 + (2 * max(self.deg, default=0)).bit_length()
        self.one = 1 << self.shift
        self.terms: dict[tuple[int, int], int] = {}
        if self.total is None:
            self._measure()
            if memo is not None:
                memo.store([self.class_of, self.mult, self.adj, self.deg, self.total,
                            self.peers])
        self.val = [self._class_value(c) for c in range(len(self.mult))]
        self.node_total = sum(m * _exact(v) for m, v in zip(self.mult, self.val))
        self.node_count = g.node_count

    def _measure(self) -> None:
        """Each class's total and peer count, from the class pairs."""
        mult, deg, terms, term, one = self.mult, self.deg, self.terms, self._term, self.one
        self.total = total = [0] * len(mult)
        self.peers = peers = [0] * len(mult)
        for c, (mc, dc) in enumerate(zip(mult, deg)):
            tc = pc = 0
            if dc:
                tc = (mc - 1) * one
                pc = mc - 1
            for d, s in self._walk(c, above=c).items():
                u = dc + deg[d] - s
                # _term's cache read inline: this runs once per class pair.
                t = terms.get((s, u))
                if t is None:
                    t = term(s, u)
                md = mult[d]
                tc += md * t
                pc += md
                total[d] += mc * t
                peers[d] += mc
            total[c] += tc
            peers[c] += pc

    def value(self) -> float:
        if not self.node_count:
            return 0.0
        return self.node_total / _SCALE / self.node_count

    def remove(self, repo_id: str) -> None:
        """Drop one repo node; only the terms it changes are touched.

        Repo side: each other repo class sharing followers with it loses one
        peer, and its classmates lose one. Follower side: each class adjacent
        to it loses one degree, so every term at its 2-paths is replaced; a
        pair of two such classes loses one shared repo, is updated once from
        each end, and drops out when nothing is left shared.
        """
        mult, deg, adj, total, peers = self.mult, self.deg, self.adj, self.total, self.peers
        term, one = self._term, self.one
        r = self.class_of[repo_id]
        hit = set(adj[r])
        touched = {r, *hit}
        for f in hit:
            shared = self._walk(f)
            del shared[f]
            df, mf = deg[f], mult[f]
            if df == 1 and mf > 1:
                total[f] -= (mf - 1) * one
                peers[f] -= mf - 1
            for p, s in shared.items():
                dp, mp = deg[p], mult[p]
                old = term(s, df + dp - s)
                if p not in hit:
                    diff = term(s, df - 1 + dp - s) - old
                    total[f] += mp * diff
                    total[p] += mf * diff
                    touched.add(p)
                elif s > 1:
                    total[f] += mp * (term(s - 1, df + dp - s - 1) - old)
                else:
                    total[f] -= mp * old
                    peers[f] -= mp
        shared = self._walk(r)
        shared.pop(r, None)
        for d, s in shared.items():
            total[d] -= term(s, deg[r] + deg[d] - s)
            peers[d] -= 1
            touched.add(d)
        if deg[r] and mult[r] > 1:
            total[r] -= one
            peers[r] -= 1
        for f in hit:
            deg[f] -= 1
        mult[r] -= 1
        if not mult[r]:
            for f in hit:
                adj[f].remove(r)
            adj[r] = []
        self.node_total -= _exact(self.val[r])
        self.node_count -= 1
        for c in touched:
            v = self._class_value(c)
            self.node_total += mult[c] * (_exact(v) - _exact(self.val[c]))
            self.val[c] = v

    def _walk(self, c: int, above: int | None = None) -> Counter[int]:
        """Shared-neighbour count with every class at distance 2 or 0, or
        only with those numbered above ``above``.

        The 2-paths through middles of multiplicity 1 are counted in one
        pass in C; each other middle adds its multiplicity per path.
        """
        adj, mult = self.adj, self.mult
        ones, heavy = [], []
        for x in adj[c]:
            nbrs = adj[x]
            if above is not None:
                nbrs = nbrs[bisect_right(nbrs, above):]
            if mult[x] == 1:
                ones.append(nbrs)
            else:
                heavy.append((mult[x], nbrs))
        shared = Counter(chain.from_iterable(ones))
        for m, nbrs in heavy:
            for d in nbrs:
                shared[d] += m
        return shared

    def _term(self, shared: int, union: int) -> int:
        """``fl(shared / union) * 2**shift`` as an exact int."""
        key = (shared, union)
        term = self.terms.get(key)
        if term is None:
            term = self.terms[key] = _scaled(shared / union, self.shift)
        return term

    def _class_value(self, c: int) -> float:
        if not self.peers[c]:
            return 0.0
        return self.total[c] / self.one / self.peers[c]


def _twin_classes(
    g: FollowerGraph,
) -> tuple[dict[str, int], list[int], list[list[int]], list[int]]:
    """The graph's twin classes, numbered in sorted id order, repo classes first.

    Returns each repo's class, and per class its multiplicity, its
    neighbour classes in ascending order and its members' degree.
    """
    repo_nbrs: dict[str, list[str]] = {r: [] for r in sorted(g.repo_nodes)}
    follower_nbrs: dict[str, list[str]] = {f: [] for f in sorted(g.follower_nodes)}
    for repo, follower in g.edges:
        repo_nbrs[repo].append(follower)
        follower_nbrs[follower].append(repo)
    repo_class, repo_keys = _group(repo_nbrs)
    follower_class, follower_keys = _group(follower_nbrs)
    offset = len(repo_keys)
    mult = [0] * (offset + len(follower_keys))
    for c in repo_class.values():
        mult[c] += 1
    for c in follower_class.values():
        mult[offset + c] += 1
    adj = [sorted({offset + follower_class[f] for f in key}) for key in repo_keys]
    adj += [sorted({repo_class[r] for r in key}) for key in follower_keys]
    return repo_class, mult, adj, [len(key) for key in repo_keys + follower_keys]


def _group(nbrs: dict[str, list[str]]) -> tuple[dict[str, int], list[tuple[str, ...]]]:
    """Class per node, numbered in node order, and each class's neighbours."""
    classes: dict[tuple[str, ...], int] = {}
    of = {node: classes.setdefault(tuple(sorted(n)), len(classes)) for node, n in nbrs.items()}
    return of, list(classes)


def _fits(state: list, g: FollowerGraph) -> bool:
    """Whether a restored ``_Overlap`` state has the layout of ``g``'s: a
    class for each repo and each list one value per class."""
    return (len(state) == 6 and isinstance(state[0], dict) and state[0].keys() == g.repo_nodes
            and all(type(column) is list and len(column) == len(state[1])
                    for column in state[1:]))


def _remember(g: FollowerGraph, memo) -> FollowerGraph:
    """``g``, with ``memo`` for its ``_Overlap`` state: the measurement of
    the intact graph is taken from ``memo.load()`` when that gives one, and
    else made and handed to ``memo.store``. Removals change the state in
    place, so each ``load`` gives a state of its own, and ``store`` is called
    before the first removal. Only the graph given carries the memo, not
    those ``remove_repo`` derives from it."""
    object.__setattr__(g, "_overlap_memo", memo)
    return g


@record
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
    scores: Mapping[str, int | float],
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
        ValueError: a repo node is missing from ``scores`` or has a NaN or
            infinite score, which has no place in the order.
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
    # Compared, not converted: an int of any size is finite and stays exact.
    unordered = sorted(r for r in g.repo_nodes if not -math.inf < scores[r] < math.inf)
    if unordered:
        raise ValueError(f"non-finite scores for repo nodes: {unordered[:5]}")

    _require_nodes(g)
    removed = sorted(g.repo_nodes, key=lambda rid: (-scores[rid], rid))[:steps]
    if kind is not CoefficientKind.BIPARTITE_LATAPY:
        values = [0.0] * (steps + 1)
    else:
        overlap = _Overlap(g)
        values = [overlap.value()]
        for target in removed:
            overlap.remove(target)
            values.append(overlap.value())
    return DeletionSeries(
        measure=measure,
        coefficient_kind=kind,
        values=tuple(values),
        removed=tuple(removed),
    )


def format_edge_list(g: FollowerGraph) -> str:
    """Plain-text export: one sorted "repo_id follower_id" pair per line.

    Raises:
        UnexportableNodeId: an id of an edge is empty or holds a character
            ``str.split`` splits on, so the line could not be read back.
    """
    edges = sorted(g.edges)
    for node in chain.from_iterable(edges):
        if node.split() != [node]:
            raise UnexportableNodeId(
                f"edge-list id must be non-empty and free of whitespace, got {node!r}"
            )
    lines = [f"{repo} {follower}" for repo, follower in edges]
    return "\n".join(lines) + ("\n" if lines else "")


def scores_for_measure(
    corpus: Corpus, measure: Indicator, *, weights: WeightTable | None = None
) -> dict[str, int | float]:
    """Per-repo score mapping used to drive a deletion experiment.

    The values are :func:`indicator_values`' own: exact ints for the count
    indicators, so the removal order is the ``rank`` order even above 2**53.
    """
    return indicator_values(corpus, measure, weights=weights)
