"""The three workloads: what users of the program wait for.

Each measures one user-facing path of the program through its public
CLI or HTTP API, checks every output against a reference computed
in-process outside the timed region, and returns an :class:`Outcome`.
With ``trace`` set, the first half of the window runs untraced and the
second half traced, so the difference is the tracer's overhead.

CPU-bound durations are reported at the reference speed of
:mod:`speed` (each raw duration times the speed factor probed around
it, or beside it for cold-report); the raw figures are printed beside
them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import (
    BACKEND_JOBS,
    BENCH_DIR,
    OUT_DIR,
    child_env,
    import_probe,
    interquartile_mean,
    median,
    percentile,
    python_argv,
    run_child,
    scratch_dir,
)
from speed import SpeedSeries, SpeedTracker

#: Set-ups per measured run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Outcome:
    """What one run measured and checked."""

    e2e: Dict[str, float]
    #: The workload's own figures, printed beside the end-to-end
    #: metrics: (name, value, unit, note).
    detail: List[Tuple[str, float, str, str]]
    attempted: int
    failed: int
    errors: List[str]
    stamp: dict
    # -- traced runs only ------------------------------------------------
    span_files: List[Path] = field(default_factory=list)
    imports: Optional[dict] = None
    events: List[dict] = field(default_factory=list)
    process_names: Dict[int, str] = field(default_factory=dict)
    #: op_ms of the untraced and the traced half.
    untraced_op_ms: float = 0.0
    traced_op_ms: float = 0.0
    traced_ops: int = 0
    traced_wall_s: float = 0.0
    #: trace -> seconds of traced-operation wall that spans cover.
    covered_s: Optional[Callable] = None
    read_ms: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)


def _scale_arg(scale: float) -> str:
    return f"{scale:g}"


def _spans_path(workload: str, seed: int, tag: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}-{tag}.json"
    path.unlink(missing_ok=True)
    return path


def _client_event(name: str, start: int, end: int, tid: int = 0) -> dict:
    return {"name": name, "cat": "client", "ph": "X", "pid": 0, "tid": tid,
            "ts": start, "dur": end - start}


def _phases(seconds: float, trace: bool) -> List[Tuple[bool, float]]:
    """(traced?, seconds) for each measured phase of a run."""
    if not trace:
        return [(False, seconds)]
    return [(False, seconds / 2), (True, seconds / 2)]


def _covered(trace, windows=()) -> float:
    from layers import covered_ns

    return covered_ns(trace, windows) / 1e9


def _imports(probes: List[dict]) -> dict:
    return {"s": median([p["s"] for p in probes]),
            "modules": probes[-1]["modules"],
            "scipy": probes[-1]["scipy"]}


# -- cold-report -------------------------------------------------------------


def cold_report(seed: int, seconds: float, trace: bool, scale: float,
                **_) -> Outcome:
    """Fresh ``report full --digest`` processes, one at a time.

    Set-up is the CLI's start-up: a fresh interpreter importing
    ``repro.cli``, the fixed cost every command pays before its work.

    Each process runs pinned to one CPU beside a :class:`SpeedTracker`
    and is timed by its CPU time (user + system, from ``wait4``) at the
    reference speed.  The report runs on one thread, so CPU time is
    what its wall time would be if nothing else wanted the CPU: it
    leaves out the tracker's probes and any time the host gives to
    other work (with two busy processes beside it on 2 vCPUs the same
    report took 11.2 s of wall time and 7.4 s of CPU).
    """
    tracker = SpeedTracker()
    try:
        return _cold_report(seed, seconds, trace, scale, tracker)
    finally:
        tracker.stop()


def _cold_report(seed: int, seconds: float, trace: bool, scale: float,
                 tracker: SpeedTracker) -> Outcome:
    from reference import full_report_digests

    probes = [import_probe(tracker.cpu) for _ in range(SETUPS)]
    expected = full_report_digests(seed, scale)
    cli = ["report", "full", "--scale", _scale_arg(scale),
           "--seed", str(seed), "--digest"]
    #: traced? -> [(start ns, end ns, CPU seconds)] of the passing reports
    times: Dict[bool, List[Tuple[int, int, float]]] = {False: [], True: []}
    rss: List[float] = []
    outcome = Outcome({}, [], 0, 0, [], {})
    for traced, window in _phases(seconds, trace):
        deadline = time.monotonic() + window
        while True:
            home = scratch_dir("report")
            if traced:
                spans = _spans_path("cold-report", seed,
                                    str(len(outcome.span_files)))
                outcome.span_files.append(spans)
                argv = python_argv(str(BENCH_DIR / "launch.py"),
                                   "--spans", str(spans), "--", *cli)
            else:
                argv = python_argv("-m", "repro", *cli)
            child, out = run_child(argv, child_env(home), cwd=home,
                                   cpu=tracker.cpu)
            shutil.rmtree(home, ignore_errors=True)
            outcome.attempted += 1
            digests = [line.split(":", 1)[1].strip()
                       for line in out.splitlines()
                       if line.startswith("report_digest:")]
            if child.returncode != 0:
                outcome.errors.append(
                    f"report full exited {child.returncode}: "
                    + child.stderr_tail(5))
            elif digests != expected:
                outcome.errors.append(f"report full digests {digests} != "
                                      f"reference {expected}")
            else:
                times[traced].append((child.started_ns, child.ended_ns,
                                      child.cpu_s))
                rss.append(child.maxrss_mb)
            if traced:
                outcome.events.append(_client_event(
                    "report full (process)", child.started_ns,
                    child.ended_ns))
                outcome.process_names[child.proc.pid] = (
                    f"repro report full #{len(outcome.span_files)}")
            if time.monotonic() >= deadline:
                break
    outcome.failed = len(outcome.errors)

    tracker.stop()
    cpu = tracker.corrected(times[False])
    raw = [c for _, _, c in times[False]]
    wall = [(end - start) / 1e9 for start, end, _ in times[False]]
    setups = tracker.corrected([(*p["window"], p["cpu_s"]) for p in probes])
    factors = [tracker.factor(start, end) for start, end, _ in times[False]]
    outcome.e2e = {
        "setup_s": median(setups),
        "op_ms": median(cpu) * 1e3,
        "work_per_s": len(cpu) / sum(cpu) if cpu else 0.0,
        "peak_rss_mb": max(rss, default=0.0),
    }
    outcome.detail = [
        ("report_s", median(wall), "s",
         f"raw wall median of {len(wall)} cold processes, "
         "beside the speed tracker"),
        ("report_cpu_s", median(raw), "s",
         f"raw CPU median of {len(raw)} cold processes"),
        ("cli_startup_s", median([p["cpu_s"] for p in probes]), "s",
         f"raw CPU: fresh interpreter + import repro.cli, median of "
         f"{SETUPS}"),
        ("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB",
         "largest report process"),
        ("speed_factor", median(factors), "x", "median over the reports"),
    ]
    outcome.stamp = {"scale": scale, "jobs": {"batch": 4},
                     "backend": "batch (CLI default)",
                     "op_clock": "CPU time of the report process at the "
                                 "reference speed",
                     "pinned_cpu": tracker.cpu,
                     "speed_factor": median(factors),
                     "reference_digests": expected}
    if trace:
        traced_wall = [(end - start) / 1e9 for start, end, _ in times[True]]
        outcome.imports = _imports(probes)
        outcome.untraced_op_ms = outcome.e2e["op_ms"]
        outcome.traced_op_ms = median(tracker.corrected(times[True])) * 1e3
        outcome.traced_ops = len(traced_wall)
        outcome.traced_wall_s = sum(traced_wall)
        outcome.covered_s = _covered
    return outcome


# -- fold-scan ---------------------------------------------------------------


def fold_scan(seed: int, seconds: float, trace: bool, scale: float,
              **_) -> Outcome:
    """Full intra reports over every backend, in one process.

    The process runs pinned to one CPU beside a :class:`SpeedTracker`
    (the sharded backend's workers on every CPU), and every set-up and
    report is put at the reference speed the tracker sees beside it.
    """
    tracker = SpeedTracker()
    try:
        return _fold_scan(seed, seconds, trace, scale, tracker)
    finally:
        tracker.stop()


def _fold_scan(seed: int, seconds: float, trace: bool, scale: float,
               tracker: SpeedTracker) -> Outcome:
    home = scratch_dir("fold")
    argv = python_argv(str(BENCH_DIR / "fold_scan.py"), "--seed", str(seed),
                       "--scale", _scale_arg(scale),
                       "--seconds", str(seconds),
                       "--setups", str(1 if trace else SETUPS))
    spans = None
    if trace:
        spans = _spans_path("fold-scan", seed, "0")
        argv += ["--spans", str(spans)]
    child, out = run_child(argv, child_env(home), cwd=home, timeout=170.0,
                           cpu=tracker.cpu)
    shutil.rmtree(home, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError("fold-scan process failed:\n"
                           + child.stderr_tail())
    data = json.loads(out.strip().splitlines()[-1])
    checks = data["checks"]
    errors = [f"{backend} digest differs from the stream reference"
              for backend in checks["mismatches"]]
    outcome = Outcome({}, [], checks["attempted"], checks["failed"], errors,
                      {})
    tracker.stop()
    untraced = data["untraced"]["sweeps"]
    sweep_s = _corrected_sweeps(untraced, tracker)
    setups = [raw * tracker.factor(start, end)
              for raw, start, end in data["setups"]]
    outcome.e2e = {
        "setup_s": median(setups),
        "op_ms": median(sweep_s) * 1e3,
        "work_per_s": (len(BACKEND_JOBS) * len(sweep_s) / sum(sweep_s)
                       if sweep_s else 0.0),
        "peak_rss_mb": child.maxrss_mb,
    }
    factors = [tracker.factor(start, end)
               for sweep in untraced for _, start, end in sweep.values()]
    outcome.detail = [
        ("setup_s", median([raw for raw, _, _ in data["setups"]]), "s",
         f"raw: generate + ingest {data['rows']} SEVs, median of "
         f"{len(setups)}"),
    ]
    for backend in BACKEND_JOBS:
        outcome.detail.append((
            f"fold_s.{backend}",
            median([sweep[backend][0] for sweep in untraced]), "s",
            f"raw median of {len(untraced)} reports",
        ))
    outcome.detail += [
        ("peak_rss_mb", child.maxrss_mb, "MB", "the fold-scan process"),
        ("speed_factor", median(factors), "x", "median over the reports"),
    ]
    outcome.stamp = {"scale": scale, "rows": data["rows"],
                     "jobs": {b: {"jobs": j, "processes": p}
                              for b, (j, p) in BACKEND_JOBS.items()},
                     "speed_factor": median(factors),
                     "reference_digest": data["reference"]}
    if trace:
        traced = _corrected_sweeps(data["traced"]["sweeps"], tracker)
        windows = [tuple(w) for w in data["traced"]["windows"]]
        outcome.span_files = [spans]
        outcome.imports = _imports([import_probe()])
        outcome.untraced_op_ms = outcome.e2e["op_ms"]
        outcome.traced_op_ms = median(traced) * 1e3
        outcome.traced_ops = len(windows)
        outcome.traced_wall_s = sum(hi - lo for lo, hi in windows) / 1e9
        outcome.covered_s = lambda t: _covered(t, windows)
        outcome.process_names[child.proc.pid] = "fold-scan (traced)"
        for (lo, hi), backend in zip(windows, itertools.cycle(BACKEND_JOBS)):
            outcome.events.append(_client_event(f"report {backend}", lo, hi))
    return outcome


def _corrected_sweeps(sweeps: List[dict],
                      tracker: SpeedTracker) -> List[float]:
    """Each sweep's duration at the reference speed."""
    return [sum(tracker.corrected(
                [(start, end, raw) for raw, start, end in sweep.values()]))
            for sweep in sweeps]


# -- serve-mixed -------------------------------------------------------------


def serve_mixed(seed: int, seconds: float, trace: bool, serve_scale: float,
                **_) -> Outcome:
    """Keep-alive reads beside back-to-back grid jobs on one server.

    The server sets up on every CPU; its set-up time is reported at the
    reference speed of the probes around it.  Once it answers, it is
    pinned to one CPU beside a :class:`SpeedTracker` and the client
    runs on the others: its grid jobs are reported at the reference
    speed the tracker sees beside each.  The server runs its request
    and job threads under one interpreter lock, so one CPU is what they
    can use.  Read latency is reported raw: the transport's wait, not
    the CPU, sets most of it.
    """
    tracker = SpeedTracker()
    try:
        return _serve_mixed(seed, seconds, trace, serve_scale, tracker)
    finally:
        tracker.stop()


def _serve_mixed(seed: int, seconds: float, trace: bool, serve_scale: float,
                 tracker: SpeedTracker) -> Outcome:
    from reference import (
        BACKBONE_SEED,
        GRID_AXES,
        GRID_SCALE,
        grid_summary_digest,
        served_report_digests,
    )
    from serve_mixed import Load, Server, read_paths

    references = served_report_digests(seed, serve_scale)
    setups = SpeedSeries()
    loads: Dict[bool, Load] = {}
    outcome = Outcome({}, [], 0, 0, [], {})
    peak_rss = 0.0
    next_job = 0
    for traced, window in _phases(seconds, trace):
        spans = None
        if traced:
            spans = _spans_path("serve-mixed", seed, "0")
            outcome.span_files.append(spans)
        # Untraced runs set up SETUPS servers and load the last one.
        count = 1 if trace else SETUPS
        setups.start()
        for attempt in range(count):
            server = Server(seed, serve_scale, spans)
            setups.record(server.setup_s)
            if attempt < count - 1:
                server.stop()
        try:
            server.pin(tracker.cpu)
            load = Load(server, seed, read_paths(server), references,
                        next_job)
            with _away_from(tracker.cpu):
                load.run(window)
        finally:
            server.stop()
        next_job = load.next_job
        loads[traced] = load
        peak_rss = max(peak_rss, server.maxrss_mb)
        if traced:
            outcome.process_names[server.child.proc.pid] = (
                "repro serve (traced)")
            outcome.events.extend(load.events)

    for load in loads.values():
        outcome.attempted += load.reads + len(load.jobs)
        outcome.errors.extend(load.read_failures + load.job_failures)
        for job_seed, digest in load.jobs:
            if digest is not None and digest != grid_summary_digest(job_seed):
                outcome.errors.append(
                    f"grid job seed {job_seed}: summary_digest differs "
                    "from the in-process GridRunner")
    outcome.failed = len(outcome.errors)

    tracker.stop()
    load = loads[False]
    read_ms, job_s = load.read_ms, load.job_s
    jobs = tracker.corrected([(start, end, (end - start) / 1e9)
                              for start, end in load.job_windows])
    factors = [tracker.factor(start, end) for start, end in load.job_windows]
    outcome.e2e = {
        "setup_s": median(setups.corrected()),
        "op_ms": interquartile_mean(read_ms),
        "work_per_s": len(jobs) / sum(jobs) if jobs else 0.0,
        "peak_rss_mb": peak_rss,
    }
    raw_setups = [raw for raw, _ in setups.samples]
    p99 = percentile(read_ms, 99)
    above = sum(1 for value in read_ms if value > p99)
    outcome.detail = [
        ("setup_s", median(raw_setups), "s",
         f"raw: spawn to first 200 on /healthz, median of "
         f"{len(raw_setups)}"),
        ("read_p50_ms", median(read_ms), "ms", f"{len(read_ms)} reads"),
        ("read_p99_ms", p99, "ms",
         f"{above} samples above" + ("" if above >= 10
                                     else " (under 10: tail unresolved)")),
        ("reads_per_s", len(read_ms) / (seconds / 2 if trace else seconds),
         "1/s", "reader connection"),
        ("job_s", median(job_s), "s",
         f"raw: POST /jobs to done, median of {len(job_s)} grid jobs"),
        ("peak_rss_mb", peak_rss, "MB", "the server process"),
        ("speed_factor", median(factors), "x", "median over the jobs"),
    ]
    outcome.stamp = {"scale": serve_scale, "backbone_seed": BACKBONE_SEED,
                     "backend": "stream (serve default)", "job_workers": 2,
                     "connections": 2, "server_cpu": tracker.cpu,
                     "speed_factor": median(factors),
                     "grid": {"axes": GRID_AXES, "scale": GRID_SCALE},
                     "reference_digests": references}
    if trace:
        traced_load = loads[True]
        outcome.imports = _imports([import_probe()])
        outcome.untraced_op_ms = outcome.e2e["op_ms"]
        outcome.traced_op_ms = interquartile_mean(traced_load.read_ms)
        outcome.traced_ops = len(traced_load.read_ms)
        outcome.traced_wall_s = sum(traced_load.read_ms) / 1e3
        outcome.read_ms = traced_load.read_ms
        outcome.job_s = traced_load.job_s
        outcome.covered_s = _read_handles_s
    return outcome


@contextlib.contextmanager
def _away_from(cpu: int):
    """Keep this process off ``cpu`` (when it has another) meanwhile."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus - {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _read_handles_s(trace) -> float:
    from layers import is_read

    return sum(s.dur_ns for s in trace.named("serve.handle")
               if is_read(s)) / 1e9


WORKLOADS = {
    "cold-report": cold_report,
    "fold-scan": fold_scan,
    "serve-mixed": serve_mixed,
}
