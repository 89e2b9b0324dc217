"""Output checks for every benchmarked command.

Each check recomputes the expected result from the generator's raw arrays
(never from the program's own code) and raises ``CheckFailed`` on the first
difference.  Floats are compared with a relative tolerance of 1e-9.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from corpora import DAY, Dataset

RTOL = 1e-9
ATOL = 1e-12
SWEEP_INDICATORS = ("forks", "stars", "watchers")


class CheckFailed(Exception):
    """An output differs from the independently recomputed expectation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def read_table(path: Path, fmt: str) -> list[dict]:
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def read_sidecar(path: Path) -> dict:
    return json.loads(path.with_name(path.name + ".meta.json").read_text(encoding="utf-8"))


class Oracle:
    """Grid, weights and scores recomputed with numpy from the raw events."""

    def __init__(self, ds: Dataset):
        self.ds = ds
        self._cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def scores(self, days: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fork weights, star weights and overall score per repository."""
        if days not in self._cache:
            ds = self.ds
            width = days * DAY
            epoch = int(ds.ev_ts.min()) - int(ds.ev_ts.min()) % DAY
            column = (ds.ev_ts - epoch) // width
            count = int(column.max()) + 1
            matrices = np.zeros((2, len(ds.repo_ids), count), dtype=np.int64)
            np.add.at(matrices, (ds.ev_kind, ds.ev_repo, column), ds.ev_delta)
            weights = []
            for m in matrices:
                totals = m.sum(axis=0)
                total = int(totals.sum())
                weights.append(totals / total if total > 0 else np.zeros(count))
            overall = (matrices[0] * weights[0] + matrices[1] * weights[1]).sum(axis=1)
            self._cache[days] = (weights[0], weights[1], overall)
        return self._cache[days]

    def measure(self, measure: str, days: int) -> np.ndarray:
        if measure == "wtps":
            return self.scores(days)[2]
        return getattr(self.ds, f"{measure}_total").astype(np.float64)


def check_score(oracle: Oracle, path: Path, fmt: str, days: int) -> None:
    wf, ws, overall = oracle.scores(days)
    ids = oracle.ds.repo_ids
    sidecar = read_sidecar(path)["weights"]
    for name, got, want in (("fork", sidecar["fork_weights"], wf),
                            ("star", sidecar["star_weights"], ws)):
        _require(len(got) == len(want), f"{name} weights cover {len(got)} intervals, want {len(want)}")
        _require(abs(math.fsum(got) - 1.0) <= RTOL, f"{name} weights sum to {math.fsum(got)!r}")
        _require(all(_close(g, w) for g, w in zip(got, want)), f"{name} weights differ")
    rows = read_table(path, fmt)
    per_repo = len(wf) + 1
    _require(len(rows) == len(ids) * per_repo, f"{len(rows)} score rows, want {len(ids) * per_repo}")
    for i, rid in enumerate(ids):
        row = rows[i * per_repo + per_repo - 1]
        _require(row["repo_id"] == rid and row["interval_index"] == "overall",
                 f"row {i * per_repo + per_repo - 1} is not the overall row of {rid}")
        _require(_close(float(row["value"]), overall[i]),
                 f"overall score of {rid} is {row['value']}, want {float(overall[i])!r}")


def check_rank(oracle: Oracle, path: Path, fmt: str, days: int, indicator: str) -> None:
    expected = dict(zip(oracle.ds.repo_ids, oracle.measure(indicator, days)))
    rows = read_table(path, fmt)
    _require(sorted(r["repo_id"] for r in rows) == sorted(expected), "ranked repositories differ")
    previous = None
    for position, row in enumerate(rows, start=1):
        value, rank_no = float(row["value"]), int(row["rank"])
        _require(row["indicator"] == indicator, f"indicator {row['indicator']!r}")
        _require(_close(value, expected[row["repo_id"]]),
                 f"{row['repo_id']} ranked by {value!r}, want {expected[row['repo_id']]!r}")
        if previous is not None:
            p_value, p_rank, p_id = previous
            _require(value <= p_value, f"row {position} out of order")
            tied = value == p_value
            _require(not tied or p_id < row["repo_id"], f"tie at row {position} not ordered by id")
            _require(rank_no == (p_rank if tied else position), f"row {position} has rank {rank_no}")
        else:
            _require(rank_no == 1, "first row is not rank 1")
        previous = (value, rank_no, row["repo_id"])


def check_sweep(oracle: Oracle, path: Path, fmt: str, widths: tuple[int, ...]) -> None:
    rows = read_table(path, fmt)
    want = [(ind, d) for d in widths for ind in SWEEP_INDICATORS]
    _require(len(rows) == len(want), f"{len(rows)} sweep rows, want {len(want)}")
    for row, (indicator, days) in zip(rows, want):
        _require((row["indicator"], int(row["interval_days"])) == (indicator, days),
                 f"sweep row {row['indicator']}/{row['interval_days']}, want {indicator}/{days}")
        r = float(row["pearson_r"])
        _require(-1.0 <= r <= 1.0, f"pearson_r {r} outside [-1, 1]")
        x = oracle.scores(days)[2]
        y = oracle.measure(indicator, days)
        _require(int(row["sample_count"]) == len(x), "sample_count differs")
        _require(abs(r - np.corrcoef(x, y)[0, 1]) <= RTOL, f"pearson_r of {indicator}/{days} differs")


def _side_sum(members_per_hub: list[np.ndarray], degree: np.ndarray) -> float:
    """Sum over one side's nodes of their mean Jaccard overlap with the
    same-side nodes at distance 2; a node without such peers adds 0."""
    n = len(degree)
    overlap = np.zeros((n, n), dtype=np.int32)
    for members in members_per_hub:
        overlap[np.ix_(members, members)] += 1
    np.fill_diagonal(overlap, 0)
    total = 0.0
    for start in range(0, n, 512):
        block = overlap[start:start + 512]
        union = degree[start:start + 512, None] + degree[None, :] - block
        jaccard = np.where(block > 0, block / np.maximum(union, 1), 0.0)
        peers = np.count_nonzero(block, axis=1)
        total += float((jaccard.sum(axis=1)[peers > 0] / peers[peers > 0]).sum())
    return total


def latapy_average(followers: tuple[tuple[str, ...], ...], kept: np.ndarray) -> float:
    """Mean pairwise-overlap clustering over all nodes of the follower graph
    restricted to the ``kept`` repositories; every follower node stays."""
    names = sorted({f for fl in followers for f in fl})
    index = {name: i for i, name in enumerate(names)}
    repo_rows = np.flatnonzero(kept)
    repo_adj = [np.array([index[f] for f in followers[r]], dtype=np.int64) for r in repo_rows]
    follower_adj: list[list[int]] = [[] for _ in names]
    for row, adj in enumerate(repo_adj):
        for f in adj.tolist():
            follower_adj[f].append(row)
    follower_members = [np.array(m, dtype=np.int64) for m in follower_adj]
    total = _side_sum(follower_members, np.array([len(a) for a in repo_adj], dtype=np.int64))
    total += _side_sum(repo_adj, np.array([len(m) for m in follower_adj], dtype=np.int64))
    return total / (len(repo_rows) + len(names))


def check_deletion(oracle: Oracle, path: Path, fmt: str, days: int, measure: str,
                   steps: int) -> None:
    series = read_sidecar(path)["series"]
    values, removed = series["values"], series["removed"]
    _require(len(values) == steps + 1, f"{len(values)} series values, want {steps + 1}")
    _require(len(removed) == steps == len(set(removed)), "removed repositories are not distinct")
    rows = read_table(path, fmt)
    _require([(int(r["step"]), r["removed_repo_id"], float(r["coefficient"])) for r in rows]
             == list(zip(range(steps + 1), ["", *removed], values)),
             "deletion table disagrees with the sidecar series")

    ids = oracle.ds.repo_ids
    score = dict(zip(ids, oracle.measure(measure, days)))
    left = sorted(ids, key=lambda rid: (-score[rid], rid))
    for rid in removed:
        # Exact ties must break by id; for recomputed float scores a gap
        # within the tolerance may order either way.
        _require(rid in left and (rid == left[0] or _close(score[rid], score[left[0]])),
                 f"removed {rid} before the top remaining repository {left[0]}")
        left.remove(rid)

    kept = np.ones(len(ids), dtype=bool)
    _require(abs(values[0] - latapy_average(oracle.ds.followers, kept)) <= RTOL,
             "coefficient of the intact graph differs")
    kept[[ids.index(rid) for rid in removed]] = False
    _require(abs(values[-1] - latapy_average(oracle.ds.followers, kept)) <= RTOL,
             "coefficient after the last deletion differs")
