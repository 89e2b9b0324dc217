"""Self-test of the benchmark's generators and output checks.

    python3 perfbench/selftest.py

Runs a small session through the real CLI, then corrupts each command's
output in turn and requires the corruption to be counted as a failed
command.  Exits non-zero on the first unmet expectation.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import time

import numpy as np

import run
from checks import latapy_average, read_table
from corpora import follower_lists

SMALL = run.Workload(
    events=dict(n_repos=40, n_intervals=6, max_delta=4, unit_events=True, follower_pool=60),
    graph=None, canonical_input=False, interval_days=14, fmt="csv",
    commands=run._session(("--measure", "wtps", "--steps", "5")),
)
SMALL_GRAPH = run.Workload(
    events=dict(n_repos=30, n_intervals=4, max_delta=9, allow_negative=True),
    graph=dict(n_followers=120, n_edges=300, alpha=1.5),
    canonical_input=True, interval_days=30, fmt="json",
    commands=run._session(("--measure", "stars")),
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def _edit_table(path, fmt, edit):
    """Rewrite a CSV or JSON result table after ``edit`` changed its rows."""
    rows = read_table(path, fmt)
    edit(rows)
    if fmt == "json":
        path.write_text(json.dumps(rows), encoding="utf-8")
        return
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def corruptions(r: run.Run):
    """(metric, description, function that damages that command's output)."""
    fmt = r.workload.fmt

    def table(metric, edit):
        return lambda: _edit_table(r.output(metric), fmt, edit)

    def sidecar(metric, edit):
        out = r.output(metric)
        return lambda: _edit_json(out.with_name(out.name + ".meta.json"), edit)

    def append_byte():
        with r.output("ingest_s").open("a", encoding="utf-8") as handle:
            handle.write(" ")

    def shift_score(rows):
        row = next(row for row in rows if row["interval_index"] == "overall")
        row["value"] = float(row["value"]) * 1.000001

    def swap(rows):
        rows[0], rows[1] = rows[1], rows[0]

    def set_pearson(rows):
        rows[-1]["pearson_r"] = 1.5

    def series(edit):
        """Edit the deletion series in the sidecar and the table alike, so
        the check must catch it by recomputation."""
        out = r.output("graph_deletion_s")

        def apply():
            meta_path = out.with_name(out.name + ".meta.json")
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            edit(meta["series"])
            meta_path.write_text(json.dumps(meta), encoding="utf-8")

            def rows(table):
                removed, values = meta["series"]["removed"], meta["series"]["values"]
                for step, row in enumerate(table):
                    row["removed_repo_id"] = removed[step - 1] if step else ""
                    row["coefficient"] = values[step]
            _edit_table(out, fmt, rows)
        return apply

    def bump_first(s):
        s["values"][0] += 1e-6

    def swap_removed(s):
        s["removed"][0], s["removed"][-1] = s["removed"][-1], s["removed"][0]

    def skew_weights(meta):
        meta["weights"]["fork_weights"][0] += 0.01

    return [
        ("ingest_s", "one byte appended", append_byte),
        ("score_s", "an overall score off by 1e-6", table("score_s", shift_score)),
        ("score_s", "weights that sum to 1.01", sidecar("score_s", skew_weights)),
        ("rank_s", "two rows swapped", table("rank_s", swap)),
        ("sweep_s", "a row missing", table("sweep_s", lambda rows: rows.pop())),
        ("sweep_s", "pearson_r of 1.5", table("sweep_s", set_pearson)),
        ("graph_deletion_s", "values[0] off by 1e-6", series(bump_first)),
        ("graph_deletion_s", "first and last removal swapped", series(swap_removed)),
    ]


def check_workload(name: str, workload: run.Workload, seed: int) -> None:
    work = run.WORK / f"selftest-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        r = run.Run(workload, workload.generate(seed), work, time.monotonic() + 120)
        r.session()
        expect(r.failures == [], f"{name}: clean session failed: {r.failures}")
        for metric, what, corrupt in corruptions(r):
            r.clear(metric)
            _, _, code, tail = r.process(["-c", run.ENTRY, *r.argv(metric)])
            expect(code == 0, f"{name}: {metric} exited {code}: {tail}")
            corrupt()
            before = len(r.failures)
            r.record(metric, 0)
            expect(len(r.failures) == before + 1, f"{name}: {metric} with {what} passed its check")
            print(f"ok  {name}: {metric} with {what} counted as failed: {r.failures[-1]}")

        # End to end: a session whose score output is damaged after every
        # command reports that command as failed, and nothing else.
        class Corrupting(run.Run):
            def process(self, argv):
                result = super().process(argv)
                if "score" in argv and self.output("score_s").exists():
                    next(f for m, _, f in corruptions(self) if m == "score_s")()
                return result

        bad = Corrupting(workload, r.dataset, work, time.monotonic() + 120)
        bad.session()
        expect(len(bad.failures) == 1 and bad.failures[0].startswith("score_s"),
               f"{name}: corrupted session reported {bad.failures}")
        print(f"ok  {name}: a corrupted session counts 1 failed of {bad.attempted}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_generators() -> None:
    a = SMALL.generate(5)
    expect(a.canonical_text() == SMALL.generate(5).canonical_text(), "same seed, different input")
    expect(a.canonical_text() != SMALL.generate(6).canonical_text(), "new seed, same input")
    heavy = run.WORKLOADS["unit-graph"]
    degrees = None
    for seed in (1, 2, 3):
        lists = follower_lists(seed, heavy.events["n_repos"], **heavy.graph)
        pairs = {(i, f) for i, fl in enumerate(lists) for f in fl}
        expect(len(pairs) == heavy.graph["n_edges"], f"seed {seed}: {len(pairs)} distinct edges")
        seq = (sorted(map(len, lists)), sorted(np.unique([f for fl in lists for f in fl],
                                                        return_counts=True)[1].tolist()))
        expect(degrees is None or seq == degrees, f"seed {seed}: degree sequences changed")
        degrees = seq
    print("ok  generators: seeded, and unit-graph keeps its degree sequences across seeds")


def check_oracle_against_networkx() -> None:
    try:
        from networkx.algorithms import bipartite
        import networkx as nx
    except ImportError:
        print("skip oracle vs networkx: networkx is not installed")
        return
    ds = SMALL_GRAPH.generate(3)
    kept = np.ones(len(ds.repo_ids), dtype=bool)
    kept[:4] = False
    g = nx.Graph()
    g.add_nodes_from(("r", rid) for rid, k in zip(ds.repo_ids, kept) if k)
    g.add_nodes_from(("f", f) for fl in ds.followers for f in fl)
    g.add_edges_from((("r", rid), ("f", f)) for rid, fl, k in zip(ds.repo_ids, ds.followers, kept)
                     if k for f in fl)
    want = bipartite.average_clustering(g, mode="dot")
    got = latapy_average(ds.followers, kept)
    expect(abs(got - want) <= 1e-12, f"oracle {got!r} != networkx {want!r}")
    print("ok  graph oracle agrees with networkx bipartite.average_clustering")


def main() -> int:
    if not (run.SRC / "wtps" / "cli.py").is_file():
        print(f"selftest: no wtps sources under {run.SRC}", file=sys.stderr)
        return 2
    check_generators()
    check_oracle_against_networkx()
    check_workload("events", SMALL, 1)
    check_workload("graph", SMALL_GRAPH, 2)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
