"""Benchmark of the wtps command-line tool on seeded synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload unit-graph --seed 1 --seconds 55 --trace 0

A run generates the workload's input file from ``--seed``, then drives a
closed loop with one client: the workload's session of CLI commands, one
after another, each in a fresh interpreter because that is how users run the
tool.  Sessions repeat while at least half a session's time is left of
``--seconds`` (at least one runs).  Every output is checked against a numpy
recomputation from the generator's raw data; a command that exits non-zero or
whose output fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a fresh
interpreter that imports wtps and loads the input), each command's wall time
from process start to exit, the session total, and the largest max-RSS of any
command.  The shared host's speed drifts by up to 1.7x for tens of seconds at
a time, so every timed process runs between two runs of a fixed calibration
task that does not touch wtps (interpreter start, ``json`` and ``datetime``
parsing, numpy sorting).  A time is reported in reference seconds: its wall
time divided by the mean of the two calibrations around it, times
``REFERENCE_S``, the calibration's wall time on the 2-vCPU host the bounds
were set on.  Each metric is the median over the run's sessions, after an
untimed warm-up set-up; the raw wall times and the calibrations are kept in
the context line.  ``--trace 1`` instead calls ``wtps.cli.main`` in-process,
once untraced and once with layer spans installed, and reports per-layer
times and counts plus the tracing overhead; the spans come from ``spans.py``.

The last line of standard output is the result object; the line before it
carries the run's context (machine, seed, workload parameters, samples),
which is also written under ``.perfbench/`` together with the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from importlib import import_module
from pathlib import Path

import numpy as np

from checks import CheckFailed, Oracle, check_deletion, check_rank, check_score, check_sweep
from corpora import Dataset, follower_lists, make_events
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# What the installed ``wtps`` console script runs.
ENTRY = "import sys\nfrom wtps.cli import main\nsys.exit(main())"
SETUP = ("import sys\nfrom wtps import load_corpus\n"
         "load_corpus(sys.argv[1], interval_days=int(sys.argv[2]))")
MIN_SETUPS = 3
# A fixed task that imports nothing of wtps, so no change to wtps moves it.
CALIBRATE = """\
import datetime, json
import numpy as np
lines = ['{"repo": "r%d", "ts": "2021-%02d-%02dT%02d:00:00Z", "delta": %d}'
         % (i % 300, i % 12 + 1, i % 28 + 1, i % 24, i % 7 - 3) for i in range(20000)]
rows = [json.loads(line) for line in lines]
ts = np.array([datetime.datetime.fromisoformat(r["ts"][:-1]).timestamp() for r in rows])
delta = np.array([r["delta"] for r in rows], dtype=float)
order = np.argsort(ts, kind="stable")
assert np.cumsum(delta[order])[-1] == delta.sum()
"""
REFERENCE_S = 0.30  # median wall time of CALIBRATE on a 2-vCPU Intel Xeon VM
SWEEP_DAYS = (30, 21, 14, 7)  # the CLI's default --interval-days-list
RUN_LIMIT_S = 170.0  # a run must end within 180 s; commands are killed past this
# Starts and times one command.  A child's max-RSS includes the peak of the
# process it was forked from, so commands are forked from this small
# launcher rather than from the benchmark, whose checks hold large arrays.
LAUNCH = """\
import json, os, subprocess, sys, threading, time
limit, argv = float(sys.argv[1]), sys.argv[2:]
start = time.perf_counter()
proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
timer = threading.Timer(limit, proc.kill)
timer.start()
_, status, usage = os.wait4(proc.pid, 0)
elapsed = time.perf_counter() - start
timer.cancel()
print(json.dumps([elapsed, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)]))
"""


@dataclass(frozen=True)
class Workload:
    """Generator parameters plus the session of commands run on its output."""

    events: dict
    graph: dict | None
    canonical_input: bool  # write the input as `wtps ingest` would, or repo-major
    interval_days: int
    fmt: str
    commands: dict[str, tuple[str, ...]]  # end-to-end metric -> subcommand argv

    def generate(self, seed: int) -> Dataset:
        event_seed, graph_seed = np.random.SeedSequence(seed).spawn(2)
        followers = None
        if self.graph:
            followers = follower_lists(graph_seed, self.events["n_repos"], **self.graph)
        return make_events(event_seed, followers=followers, **self.events)


def _session(deletion: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    return {
        "ingest_s": ("ingest",),
        "score_s": ("score",),
        "rank_s": ("rank", "--indicator", "wtps"),
        "sweep_s": ("sweep",),
        "graph_deletion_s": ("graph-deletion", *deletion),
    }


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "unit-graph": Workload(
        events=dict(n_repos=300, n_intervals=24, max_delta=5, unit_events=True),
        graph=dict(n_followers=3000, n_edges=6000, alpha=1.5),
        canonical_input=True, interval_days=30, fmt="csv",
        commands=_session(("--measure", "wtps", "--steps", "2")),
    ),
    "wide-weekly": Workload(
        events=dict(n_repos=400, n_intervals=24, max_delta=20, allow_negative=True,
                    follower_pool=600),
        graph=None, canonical_input=False, interval_days=7, fmt="json",
        commands=_session(("--measure", "stars")),
    ),
}

# Metric names and units come from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """One benchmark run: the generated input, its checks and the session."""

    def __init__(self, workload: Workload, dataset: Dataset, work: Path, deadline: float):
        self.workload = workload
        self.dataset = dataset
        self.work = work
        self.deadline = deadline
        self.input = work / "input.jsonl"
        text = dataset.canonical_text()
        self.canonical_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if not workload.canonical_input:
            text = dataset.raw_text()
        self.input.write_text(text, encoding="utf-8", newline="")
        self.input_mb = self.input.stat().st_size / 1e6
        self.oracle = Oracle(dataset)
        self.verified: dict[str, set[str]] = {metric: set() for metric in workload.commands}
        self.attempted = 0
        self.failures: list[str] = []

    def argv(self, metric: str) -> list[str]:
        wl = self.workload
        args = wl.commands[metric]
        return [*args, "--input", str(self.input), "--output", str(self.output(metric)),
                "--interval-days", str(wl.interval_days), "--format", wl.fmt]

    def output(self, metric: str) -> Path:
        ext = "jsonl" if metric == "ingest_s" else self.workload.fmt
        return self.work / f"{metric.removesuffix('_s')}.{ext}"

    def clear(self, metric: str) -> None:
        out = self.output(metric)
        out.unlink(missing_ok=True)
        out.with_name(out.name + ".meta.json").unlink(missing_ok=True)

    def record(self, metric: str, exit_code: int, detail: str = "") -> None:
        """Count one attempt; check the output of a successful command."""
        self.attempted += 1
        if exit_code != 0:
            self.failures.append(f"{metric}: exit {exit_code} {detail}".strip())
            return
        try:
            self.check(metric)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures.append(f"{metric}: {type(exc).__name__}: {exc}")

    def check(self, metric: str) -> None:
        out = self.output(metric)
        data = out.read_bytes()
        if metric == "ingest_s":
            if hashlib.sha256(data).hexdigest() != self.canonical_sha:
                raise CheckFailed("ingest output is not the canonical form of the input")
            return
        digest = hashlib.sha256(data + out.with_name(out.name + ".meta.json").read_bytes())
        if digest.hexdigest() in self.verified[metric]:
            return  # byte-identical to an output that passed the full check
        wl, args = self.workload, self.workload.commands[metric]
        if args[0] == "score":
            check_score(self.oracle, out, wl.fmt, wl.interval_days)
        elif args[0] == "rank":
            check_rank(self.oracle, out, wl.fmt, wl.interval_days, _flag(args, "--indicator"))
        elif args[0] == "sweep":
            check_sweep(self.oracle, out, wl.fmt, SWEEP_DAYS)
        elif args[0] == "graph-deletion":
            steps = _flag(args, "--steps")
            steps = int(steps) if steps else min(100, len(self.dataset.repo_ids))
            check_deletion(self.oracle, out, wl.fmt, wl.interval_days,
                           _flag(args, "--measure"), steps)
        self.verified[metric].add(digest.hexdigest())

    def process(self, argv: list[str]) -> tuple[float, float, int, str]:
        """Run one fresh interpreter; wall seconds, max-RSS MB, exit code, stderr tail."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        limit = max(1.0, self.deadline - time.monotonic())
        with open(self.work / "stderr.txt", "w+b") as err:
            launched = subprocess.run(
                [sys.executable, "-c", LAUNCH, str(limit), sys.executable, *argv],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, check=True)
            err.seek(0)
            tail = err.read()[-300:].decode("utf-8", "replace").strip()
        elapsed, rss_mb, code = json.loads(launched.stdout)
        return elapsed, rss_mb, code, tail

    def measure_setup(self) -> float:
        """Seconds for a fresh interpreter to import wtps and load the input."""
        elapsed, _, code, tail = self.process(
            ["-c", SETUP, str(self.input), str(self.workload.interval_days)])
        self.attempted += 1
        if code != 0:
            self.failures.append(f"setup: exit {code} {tail}")
        return elapsed

    def calibrate(self) -> float:
        """Wall seconds of one run of the calibration task."""
        elapsed, _, code, tail = self.process(["-c", CALIBRATE])
        if code != 0:
            raise RuntimeError(f"calibration task exited {code}: {tail}")
        return elapsed

    def command(self, metric: str) -> tuple[float, float]:
        """Run and check one command in a fresh process; wall seconds, max-RSS MB."""
        self.clear(metric)
        elapsed, rss, code, tail = self.process(["-c", ENTRY, *self.argv(metric)])
        self.record(metric, code, tail)
        return elapsed, rss

    def session(self) -> tuple[dict[str, float], float]:
        """One session in fresh processes: per-command seconds, peak RSS MB."""
        times, peak = {}, 0.0
        for metric in self.workload.commands:
            times[metric], rss = self.command(metric)
            peak = max(peak, rss)
        return times, peak

    def session_in_process(self, tracer: Tracer | None, label: str) -> float:
        """One session through ``wtps.cli.main`` in this process; total seconds."""
        total = 0.0
        for metric in self.workload.commands:
            self.clear(metric)
            argv = self.argv(metric)
            if tracer is not None:
                tracer.trace_id = f"{label}/{argv[0]}"
            start = time.perf_counter()
            code = import_module("wtps.cli").main(argv)
            total += time.perf_counter() - start
            self.record(metric, code)
        return total


def _flag(args: tuple[str, ...], name: str) -> str | None:
    return args[args.index(name) + 1] if name in args else None


def _repeat(seconds: float, deadline: float, body) -> None:
    """Call ``body`` at least once, and again while at least half a call's
    time is left of ``seconds`` and a whole call's before ``deadline``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        took = time.perf_counter() - t0
        if (time.perf_counter() - start + took / 2 > seconds
                or time.monotonic() + took > deadline):
            return


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    start = time.perf_counter()
    # Warm-up, inside the run's time: fills the page cache and writes the
    # bytecode of wtps, so timed processes see neither.
    run.measure_setup()
    calibrations = [run.calibrate()]
    raw: list[dict[str, float]] = []
    sessions: list[dict[str, float]] = []
    peaks: list[float] = []

    def scaled(elapsed: float) -> float:
        """``elapsed`` in reference seconds, by the calibrations either side of it."""
        calibrations.append(run.calibrate())
        return elapsed / statistics.fmean(calibrations[-2:]) * REFERENCE_S

    def session() -> None:
        times = {"setup_s": run.measure_setup()}
        row = {"setup_s": scaled(times["setup_s"])}
        peak = 0.0
        for metric in run.workload.commands:
            times[metric], rss = run.command(metric)
            row[metric] = scaled(times[metric])
            peak = max(peak, rss)
        raw.append(times)
        sessions.append(row)
        peaks.append(peak)

    _repeat(seconds - (time.perf_counter() - start), run.deadline, session)
    setups = [s["setup_s"] for s in sessions]
    while len(setups) < MIN_SETUPS:
        setups.append(scaled(run.measure_setup()))
    metrics = {"setup_s": statistics.median(setups)}
    for metric in run.workload.commands:
        metrics[metric] = statistics.median(s[metric] for s in sessions)
    metrics["session_s"] = statistics.median(
        sum(s[m] for m in run.workload.commands) for s in sessions)
    metrics["peak_rss_mb"] = statistics.median(peaks)
    samples = {"reference_s": REFERENCE_S, "calibration_s": calibrations, "setup_s": setups,
               "raw": raw, "scaled": sessions, "peak_rss_mb": peaks}
    return metrics, samples


def _layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    out = {name: float(totals.get(name, 0.0)) for name in LAYER_UNITS}
    out["cli.self_s"] = totals.get("cli.main_s", 0.0)
    load_s = totals.get("dataset.load_s", 0.0)
    out["dataset.load_events_per_s"] = totals.get("dataset.events_parsed", 0) / load_s if load_s else 0.0
    cells = totals.get("model.cells", 0)
    out["model.nonzero_cell_frac"] = totals.get("model.nonzero_cells", 0) / (2 * cells) if cells else 0.0
    calls = totals.get("graph.coefficient_calls", 0)
    out["graph.coefficient_mean_s"] = totals.get("graph.coefficient_s", 0.0) / calls if calls else 0.0
    return out


def measure_layers(run: Run, seconds: float) -> tuple[dict[str, float], dict, Tracer]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import_module("wtps.cli")
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_session: list[dict[str, float]] = []

    def pair() -> None:
        label = f"session{len(traced)}"
        untraced.append(run.session_in_process(None, label))
        tracer.install()
        try:
            traced.append(run.session_in_process(tracer, label))
        finally:
            tracer.uninstall()
        ids = {f"{label}/{run.workload.commands[m][0]}" for m in run.workload.commands}
        per_session.append(_layer_metrics(tracer.layer_metrics(ids)))

    _repeat(seconds, run.deadline, pair)
    metrics = {name: statistics.median(s[name] for s in per_session) for name in LAYER_UNITS}
    # Each traced session runs right after its untraced twin, so the ratio
    # within a pair cancels most of the host's slow drift.
    metrics["bench.trace_overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced, untraced)) - 1.0
    return metrics, {"untraced_s": untraced, "traced_s": traced}, tracer


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:  # not Linux
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    launched = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wtps" / "cli.py").is_file():
        print(f"perfbench: no wtps sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        run = Run(workload, workload.generate(args.seed), work, launched + RUN_LIMIT_S)
        generate_s = time.perf_counter() - t0
        if args.trace:
            metrics, samples, tracer = measure_layers(run, args.seconds)
            units = LAYER_UNITS
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans.write_text("".join(json.dumps(r) + "\n" for r in tracer.records()))
        else:
            metrics, samples = measure_end_to_end(run, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": asdict(workload), "machine": machine(),
        "events": len(run.dataset.ev_ts), "input_mb": run.input_mb,
        "generate_s": generate_s, "samples": samples, "failures": run.failures,
    }
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
