"""Seeded synthetic inputs for the benchmark.

Every generator takes the seed as an argument and returns a ``Dataset``: the
raw records as numpy arrays (kept for the output checks) plus the JSON-lines
text the CLI reads.  The program under test only ever sees the written file.

The event corpora follow the shape of ``tests/synth.make_corpus``: per
repository, per interval and per kind a delta drawn from ``[0, max_delta]``,
optionally negated, written either as that many unit events or as one
aggregate event.  The heavy graph fixes both degree sequences, so a new seed
changes which nodes are linked but not how much work a coefficient costs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BASE_TS = 1_514_764_800  # 2018-01-01T00:00:00Z
DAY = 86_400
KINDS = ("fork", "star")
_LANGUAGES = (None, "Python", "JavaScript", "Go", "Rust", "C")


@dataclass(frozen=True)
class Dataset:
    """Generated repositories and events, in generation order.

    ``ev_repo`` indexes ``repo_ids``; ``ev_kind`` is 0 for fork, 1 for star.
    ``followers[i]`` is the owner-follower list of repository ``i``.
    """

    repo_ids: tuple[str, ...]
    forks_total: np.ndarray
    stars_total: np.ndarray
    watchers_total: np.ndarray
    followers: tuple[tuple[str, ...], ...]
    repo_lines: tuple[str, ...]
    ev_repo: np.ndarray
    ev_kind: np.ndarray
    ev_ts: np.ndarray
    ev_delta: np.ndarray

    @property
    def captured_at(self) -> int:
        return int(self.ev_ts.max())

    def canonical_order(self) -> np.ndarray:
        """Event order of a canonical save: (occurred_at, repo_id, kind)."""
        return np.lexsort((self.ev_kind, self.ev_repo, self.ev_ts))

    def event_lines(self, order: np.ndarray | None = None) -> list[str]:
        idx = np.arange(len(self.ev_ts)) if order is None else order
        stamps = np.datetime_as_string(self.ev_ts[idx].astype("datetime64[s]"))
        ids = self.repo_ids
        return [
            f'{{"repo_id":"{ids[r]}","kind":"{KINDS[k]}","occurred_at":"{s}Z","delta":{d}}}'
            for r, k, s, d in zip(
                self.ev_repo[idx].tolist(), self.ev_kind[idx].tolist(),
                stamps.tolist(), self.ev_delta[idx].tolist(),
            )
        ]

    def canonical_text(self) -> str:
        """The exact bytes ``wtps ingest`` must write for this dataset."""
        manifest = _dump({
            "schema_version": 1,
            "captured_at": _iso(self.captured_at),
            "repo_count": len(self.repo_ids),
            "source": "file",
        })
        lines = [manifest, *self.repo_lines, *self.event_lines(self.canonical_order())]
        return "\n".join(lines) + "\n"

    def raw_text(self) -> str:
        """Repositories, then events grouped by repository, no manifest:
        a valid file that is not in canonical order."""
        return "\n".join([*self.repo_lines, *self.event_lines()]) + "\n"


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def _iso(ts: int) -> str:
    return str(np.datetime64(int(ts), "s")) + "Z"


def _repo_lines(rng: np.random.Generator, repo_ids, forks_total, stars_total,
                followers) -> tuple[tuple[str, ...], np.ndarray]:
    n = len(repo_ids)
    languages = rng.integers(0, len(_LANGUAGES), n).tolist()
    size_kb = rng.integers(0, 5001, n).tolist()
    owner_followers = rng.integers(0, 301, n).tolist()
    watchers = rng.integers(0, 51, n)
    created = _iso(BASE_TS)
    lines = tuple(
        _dump({
            "repo_id": rid,
            "full_name": f"org{i % 7}/{rid}",
            "created_at": created,
            "primary_language": _LANGUAGES[languages[i]],
            "size_kb": size_kb[i],
            "owner_followers": owner_followers[i],
            "forks_total": int(forks_total[i]),
            "stars_total": int(stars_total[i]),
            "watchers_total": int(watchers[i]),
            "follower_ids": list(followers[i]),
        })
        for i, rid in enumerate(repo_ids)
    )
    return lines, watchers


def make_events(
    seed: int,
    n_repos: int,
    n_intervals: int,
    max_delta: int,
    unit_events: bool = False,
    allow_negative: bool = False,
    follower_pool: int = 0,
    interval_days: int = 30,
    followers: tuple[tuple[str, ...], ...] | None = None,
) -> Dataset:
    """Event corpus: one delta per (repo, interval, kind), zeros dropped.

    With ``unit_events`` each delta becomes ``|delta|`` events of +-1 spread
    uniformly over the interval; otherwise one aggregate event carries it.
    ``followers`` overrides the follower lists drawn from ``follower_pool``.
    """
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, max_delta + 1, size=(n_repos, n_intervals, 2))
    if allow_negative:
        counts = np.where(rng.random(counts.shape) < 0.2, -counts, counts)
    repo_idx, interval_idx, kind_idx = np.nonzero(counts)
    values = counts[repo_idx, interval_idx, kind_idx]
    if unit_events:
        reps = np.abs(values)
        ev_repo = np.repeat(repo_idx, reps)
        ev_kind = np.repeat(kind_idx, reps)
        ev_interval = np.repeat(interval_idx, reps)
        ev_delta = np.repeat(np.sign(values), reps)
    else:
        ev_repo, ev_kind, ev_interval, ev_delta = repo_idx, kind_idx, interval_idx, values
    span = interval_days * DAY
    ev_ts = BASE_TS + ev_interval * span + rng.integers(0, span, len(ev_repo))

    repo_ids = tuple(f"repo{i:04d}" for i in range(n_repos))
    fork_sum = np.bincount(ev_repo, weights=ev_delta * (ev_kind == 0), minlength=n_repos)
    star_sum = np.bincount(ev_repo, weights=ev_delta * (ev_kind == 1), minlength=n_repos)
    forks_total = np.maximum(fork_sum, 0).astype(np.int64)
    stars_total = np.maximum(star_sum, 0).astype(np.int64)
    if followers is None:
        followers = tuple(
            tuple(f"u{j}" for j in rng.choice(follower_pool, size=k, replace=False))
            for k in rng.integers(0, min(5, follower_pool) + 1, n_repos)
        ) if follower_pool else ((),) * n_repos
    lines, watchers = _repo_lines(rng, repo_ids, forks_total, stars_total, followers)
    return Dataset(
        repo_ids=repo_ids,
        forks_total=forks_total,
        stars_total=stars_total,
        watchers_total=watchers,
        followers=followers,
        repo_lines=lines,
        ev_repo=ev_repo.astype(np.int64),
        ev_kind=ev_kind.astype(np.int64),
        ev_ts=ev_ts.astype(np.int64),
        ev_delta=ev_delta.astype(np.int64),
    )


def _pareto_degrees(n: int, total: int, alpha: float, cap: int) -> np.ndarray:
    """Fixed heavy-tailed degree sequence: Pareto quantiles scaled to ``total``.

    Every entry is at least 1 and at most ``cap``; the sum is exactly ``total``.
    """
    q = (np.arange(n) + 0.5) / n
    raw = (1.0 - q) ** (-1.0 / alpha)
    deg = np.maximum(1, np.floor(raw * total / raw.sum())).astype(np.int64)
    deg = np.minimum(deg, cap)
    short = total - int(deg.sum())
    i = 0
    while short:
        step = 1 if short > 0 else -1
        if (step > 0 and deg[i] < cap) or (step < 0 and deg[i] > 1):
            deg[i] += step
            short -= step
        i = (i + 1) % n
    return deg


def follower_lists(seed: int, n_repos: int, n_followers: int, n_edges: int,
                   alpha: float = 1.2) -> tuple[tuple[str, ...], ...]:
    """Simple bipartite graph with fixed Pareto degree sequences on both sides.

    A configuration model pairs repo stubs with follower stubs at random;
    repeated pairs are then moved by degree-preserving swaps, so the node and
    edge counts and both degree sequences are the same for every seed.
    """
    rng = np.random.default_rng(seed)
    repo_deg = rng.permutation(_pareto_degrees(n_repos, n_edges, alpha, n_followers))
    follower_deg = rng.permutation(_pareto_degrees(n_followers, n_edges, alpha, n_repos))
    repos = np.repeat(np.arange(n_repos), repo_deg)
    follows = rng.permutation(np.repeat(np.arange(n_followers), follower_deg))
    seen: set[tuple[int, int]] = set()
    dupes = []
    for i, pair in enumerate(zip(repos.tolist(), follows.tolist())):
        if pair in seen:
            dupes.append(i)
        else:
            seen.add(pair)
    while dupes:
        i = dupes.pop()
        while True:
            j = int(rng.integers(n_edges))
            a, b = (int(repos[i]), int(follows[j])), (int(repos[j]), int(follows[i]))
            if j in dupes or a in seen or b in seen or a[0] == b[0]:
                continue
            seen.discard((int(repos[j]), int(follows[j])))
            follows[i], follows[j] = follows[j], follows[i]
            seen.update((a, b))
            break
    lists: list[list[str]] = [[] for _ in range(n_repos)]
    for r, f in zip(repos.tolist(), follows.tolist()):
        lists[r].append(f"u{f}")
    return tuple(tuple(lst) for lst in lists)
