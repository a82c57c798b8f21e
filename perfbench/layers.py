"""Per-layer metrics, self-time table and Chrome trace from span dumps.

Input: the JSON files :meth:`tracer.Tracer.dump` wrote, one per traced
process, plus the client-side events the workload recorded itself.
Layer names are the repo's module names.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from harness import BACKEND_JOBS, median

BACKENDS = tuple(BACKEND_JOBS)

#: Span-name prefix -> the module the span's layer is named after.
MODULES = {
    "import": "repro (import)",
    "scenarios": "repro.scenarios",
    "simulation": "repro.simulation",
    "incidents": "repro.incidents",
    "survivability": "repro.survivability",
    "runtime": "repro.runtime",
    "cache": "repro.runtime.cache",
    "core": "repro.core",
    "viz": "repro.viz",
    "oracle": "repro.faultline.oracle",
    "serve": "repro.serve",
}

#: Per-layer metrics: name -> (unit, better, end-to-end metric@workload
#: it should move).  Every traced run prints all of them; a layer a
#: workload never calls reads 0 there.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "import.s": ("s", "lower", "op_ms@cold-report, setup_s@cold-report+serve-mixed"),
    "import.modules": ("count", "lower", "op_ms@cold-report, setup_s@cold-report+serve-mixed"),
    "import.scipy": ("count", "lower", "op_ms@cold-report, setup_s@cold-report+serve-mixed"),
    "scenarios.materialize_s": ("s", "lower", "work_per_s@serve-mixed (grid jobs)"),
    "simulation.intra_s": ("s", "lower", "op_ms@cold-report, setup_s@fold-scan+serve-mixed, work_per_s@serve-mixed"),
    "simulation.backbone_s": ("s", "lower", "op_ms@cold-report, setup_s@serve-mixed"),
    "simulation.sevs": ("count", "higher", "exact count of the SEVs simulated"),
    "simulation.tickets": ("count", "higher", "exact count of the tickets simulated"),
    "incidents.review_s": ("s", "lower", "op_ms@cold-report, setup_s@fold-scan, work_per_s@serve-mixed"),
    "incidents.ingest_s": ("s", "lower", "op_ms@cold-report, setup_s@fold-scan, work_per_s@serve-mixed"),
    "incidents.ingest_calls": ("count", "lower", "op_ms@cold-report, setup_s@fold-scan"),
    "incidents.rows_per_ingest_call": ("rows/call", "higher", "op_ms@cold-report, setup_s@fold-scan"),
    "incidents.scan_s": ("s", "lower", "op_ms@fold-scan (stream, sharded)"),
    "survivability.trials_s": ("s", "lower", "op_ms@cold-report"),
}
for _backend in BACKENDS:
    _moves = f"op_ms@fold-scan ({_backend})"
    if _backend == "batch":
        _moves += ", op_ms@cold-report"
    for _part in ("prepare", "fold", "transpose", "merge", "finalize",
                  "batch", "unattributed", "report"):
        PER_LAYER[f"runtime.{_part}_s.{_backend}"] = ("s", "lower", _moves)
    PER_LAYER[f"runtime.rows_folded.{_backend}"] = ("count", "lower", _moves)
PER_LAYER.update({
    "runtime.columnar_fallbacks": ("count", "lower", "op_ms@fold-scan (columnar); expected 0"),
    "cache.lookup_s": ("s", "lower", "op_ms@serve-mixed"),
    "cache.hits": ("count", "higher", "op_ms@serve-mixed"),
    "cache.misses": ("count", "lower", "op_ms@serve-mixed"),
    "cache.hit_ratio": ("ratio", "higher", "op_ms@serve-mixed"),
    "core.backbone_report_s": ("s", "lower", "op_ms@cold-report"),
    "viz.render_s": ("s", "lower", "op_ms@cold-report"),
    "oracle.digest_s": ("s", "lower", "op_ms@serve-mixed"),
    "serve.handle_ms": ("ms", "lower", "op_ms@serve-mixed"),
    "serve.payload_ms": ("ms", "lower", "op_ms@serve-mixed"),
    "serve.transport_ms": ("ms", "lower", "op_ms, work_per_s@serve-mixed"),
    "serve.prewarm_s": ("s", "lower", "setup_s@serve-mixed"),
    "serve.job_run_s": ("s", "lower", "work_per_s@serve-mixed"),
    "serve.job_wait_s": ("s", "lower", "work_per_s@serve-mixed"),
    "trace.unattributed_s": ("s", "lower", "wall of the traced operations that no span covers"),
    "trace.overhead_ms": ("ms", "lower", "traced minus untraced op_ms: the tracer's cost"),
})


class Span:
    __slots__ = ("pid", "sid", "parent", "name", "start", "end", "self_ns",
                 "tid", "args", "hot", "children")

    def __init__(self, pid, row) -> None:
        (self.sid, self.parent, self.name, self.start, self.end,
         self.self_ns, self.tid, self.args) = row
        self.pid = pid
        self.args = self.args or {}
        self.hot: Dict[str, List[int]] = {}
        self.children: List["Span"] = []

    @property
    def dur_ns(self) -> int:
        return self.end - self.start


class Trace:
    """Every span of the traced processes, linked into trees."""

    def __init__(self, dumps: Iterable[dict]) -> None:
        self.spans: List[Span] = []
        self.roots: List[Span] = []
        #: Hot calls made outside any span, per name: [dur, self, calls].
        self.loose_hot: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.pids: List[int] = []
        self.by_key: Dict[Tuple[int, int], Span] = {}
        for dump in dumps:
            pid = dump["pid"]
            self.pids.append(pid)
            by_id = {}
            for row in dump["spans"]:
                span = Span(pid, row)
                by_id[span.sid] = span
                self.by_key[(pid, span.sid)] = span
                self.spans.append(span)
            for span in by_id.values():
                parent = by_id.get(span.parent)
                if parent is None:
                    self.roots.append(span)
                else:
                    parent.children.append(span)
            for sid, name, dur, self_ns, calls in dump["hot"]:
                target = (by_id[sid].hot if sid in by_id
                          else self.loose_hot)
                sums = target.setdefault(name, [0, 0, 0])
                sums[0] += dur
                sums[1] += self_ns
                sums[2] += calls

    @classmethod
    def load(cls, paths: Iterable[Path]) -> "Trace":
        dumps = []
        for path in paths:
            with open(path) as handle:
                dumps.append(json.load(handle))
        return cls(dumps)

    # -- selections ------------------------------------------------

    def named(self, *names: str) -> List[Span]:
        return [s for s in self.spans if s.name in names]

    @staticmethod
    def descendants(span: Span) -> List[Span]:
        out, pending = [], list(span.children)
        while pending:
            child = pending.pop()
            out.append(child)
            pending.extend(child.children)
        return out

    def hot_sum(self, name: str, field: int,
                spans: Optional[Iterable[Span]] = None) -> int:
        pool = self.spans if spans is None else spans
        total = sum(s.hot[name][field] for s in pool if name in s.hot)
        if spans is None and name in self.loose_hot:
            total += self.loose_hot[name][field]
        return total

    # -- the self-time table ---------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        table: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            table[MODULES[span.name.split(".")[0]]] += span.self_ns / 1e9
            for name, (_, self_ns, _) in span.hot.items():
                table[MODULES[name.split(".")[0]]] += self_ns / 1e9
        for name, (_, self_ns, _) in self.loose_hot.items():
            table[MODULES[name.split(".")[0]]] += self_ns / 1e9
        return dict(sorted(table.items(), key=lambda kv: -kv[1]))


def _self_s(spans: Iterable[Span]) -> float:
    return sum(s.self_ns for s in spans) / 1e9


def _p50_ms(spans: Sequence[Span]) -> float:
    return median([s.dur_ns / 1e6 for s in spans])


def is_read(span: Span) -> bool:
    path = span.args.get("path") or ""
    return (span.args.get("method") == "GET"
            and not path.startswith(("/jobs", "/artifacts")))


def runtime_metrics(trace: Trace) -> Dict[str, float]:
    """The ``runtime.*`` metrics, per backend of the enclosing report."""
    metrics: Dict[str, float] = {}
    for backend in BACKENDS:
        reports = [s for s in trace.named("runtime.run_intra_report")
                   if s.args.get("backend") == backend]
        inside: List[Span] = []
        for report in reports:
            inside.extend(trace.descendants(report))
        scope = inside + reports

        def self_of(*names: str) -> float:
            return _self_s(s for s in inside if s.name in names)

        prefix = "runtime."
        metrics[f"{prefix}prepare_s.{backend}"] = self_of("runtime.prepare")
        metrics[f"{prefix}fold_s.{backend}"] = (
            self_of("runtime.fold_batch", "runtime.fold_sql")
            + trace.hot_sum("runtime.fold", 1, scope) / 1e9
        )
        metrics[f"{prefix}transpose_s.{backend}"] = (
            self_of("runtime.transpose")
            + trace.hot_sum("runtime.transpose_scan", 1, scope) / 1e9
        )
        metrics[f"{prefix}merge_s.{backend}"] = self_of("runtime.merge")
        metrics[f"{prefix}finalize_s.{backend}"] = self_of("runtime.finalize")
        metrics[f"{prefix}batch_s.{backend}"] = self_of("runtime.batch")
        metrics[f"{prefix}unattributed_s.{backend}"] = (
            _self_s(reports) + self_of("runtime.Executor.run")
        )
        metrics[f"{prefix}report_s.{backend}"] = (
            sum(s.dur_ns for s in reports) / 1e9
        )
        metrics[f"{prefix}rows_folded.{backend}"] = (
            trace.hot_sum("runtime.fold", 2, scope)
            + sum(s.args.get("rows", 0) for s in inside
                  if s.name == "runtime.fold_batch")
        )
    metrics["runtime.columnar_fallbacks"] = sum(
        s.args.get("fallbacks", 0) for s in trace.named("runtime.Executor.run")
    )
    return metrics


def layer_metrics(trace: Trace, imports: dict,
                  read_ms: Sequence[float] = (),
                  job_s: Sequence[float] = ()) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.*``.

    ``read_ms``/``job_s`` are the client-observed latencies of the
    traced serve-mixed phase (empty elsewhere).
    """
    ingest_spans = trace.named("incidents.insert_many", "incidents.bulk_load")
    single_inserts = trace.hot_sum("incidents.insert", 2)
    calls = single_inserts + len(ingest_spans)
    rows = single_inserts + sum(s.args.get("rows", 0) for s in ingest_spans)
    lookups = trace.named("cache.lookup")
    hits = sum(1 for s in lookups if s.args.get("hit"))
    handles = [s for s in trace.named("serve.handle") if is_read(s)]
    payloads = [
        s for s in trace.named("serve.report_payload", "serve.figure_payload")
        if s.name == "serve.figure_payload"
        or not any(p.name == "serve.figure_payload"
                   for p in _ancestors(trace, s))
    ]
    handle_ms = _p50_ms(handles)
    job_run = [s.dur_ns / 1e9 for s in trace.named("serve.execute_job")]
    metrics = {
        "import.s": imports["s"],
        "import.modules": imports["modules"],
        "import.scipy": imports["scipy"],
        "scenarios.materialize_s": _self_s(trace.named(
            "scenarios.paper_scenario", "scenarios.materialize")),
        "simulation.intra_s": _self_s(trace.named("simulation.intra")),
        "simulation.backbone_s": _self_s(trace.named("simulation.backbone")),
        "simulation.sevs": sum(s.args.get("rows", 0)
                               for s in trace.named("simulation.intra")),
        "simulation.tickets": sum(s.args.get("tickets", 0)
                                  for s in trace.named("simulation.backbone")),
        "incidents.review_s": trace.hot_sum("incidents.review", 1) / 1e9,
        "incidents.ingest_s": (trace.hot_sum("incidents.insert", 1) / 1e9
                               + _self_s(ingest_spans)),
        "incidents.ingest_calls": calls,
        "incidents.rows_per_ingest_call": rows / calls if calls else 0.0,
        "incidents.scan_s": trace.hot_sum("incidents.scan", 0) / 1e9,
        "survivability.trials_s": _self_s(
            trace.named("survivability.generate_trials")),
        **runtime_metrics(trace),
        "cache.lookup_s": _self_s(trace.named("cache.lookup", "cache.store")),
        "cache.hits": hits,
        "cache.misses": len(lookups) - hits,
        "cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "core.backbone_report_s": sum(
            s.dur_ns for s in trace.named("core.backbone_study_report")
        ) / 1e9,
        "viz.render_s": _self_s(trace.named("viz.render")),
        "oracle.digest_s": _self_s(trace.named("oracle.report_digest")),
        "serve.handle_ms": handle_ms,
        "serve.payload_ms": _p50_ms(payloads),
        "serve.transport_ms": (median(read_ms) - handle_ms
                               if read_ms and handles else 0.0),
        "serve.prewarm_s": sum(s.dur_ns for s in
                               trace.named("serve.prewarm")) / 1e9,
        "serve.job_run_s": median(job_run),
        "serve.job_wait_s": (median(job_s) - median(job_run)
                             if job_s and job_run else 0.0),
    }
    return metrics


def _ancestors(trace: Trace, span: Span) -> List[Span]:
    out = []
    parent = trace.by_key.get((span.pid, span.parent))
    while parent is not None:
        out.append(parent)
        parent = trace.by_key.get((parent.pid, parent.parent))
    return out


def covered_ns(trace: Trace, windows: Sequence[Tuple[int, int]] = (),
               pids: Optional[Iterable[int]] = None) -> int:
    """Wall time the traced top-level spans cover.

    With ``windows``, only top-level spans inside one of them count;
    with ``pids``, only those processes' spans.
    """
    pids = set(pids) if pids is not None else None
    total = 0
    for root in trace.roots:
        if pids is not None and root.pid not in pids:
            continue
        if windows and not any(lo <= root.start and root.end <= hi
                               for lo, hi in windows):
            continue
        total += root.dur_ns
    return total


# -- exports ---------------------------------------------------------------


def chrome_trace(trace: Trace, client_events: Sequence[dict],
                 process_names: Dict[int, str], stamp: dict) -> dict:
    """Chrome trace-event JSON (opens in Perfetto and chrome://tracing).

    Spans become complete (``X``) events on their process and thread;
    per-row hot-call sums ride on their enclosing span's ``args``.
    ``client_events`` are the workload's own operations, already in
    trace-event form with ``ts``/``dur`` in ns (converted here).
    """
    starts = [s.start for s in trace.spans]
    starts += [e["ts"] for e in client_events]
    origin = min(starts) if starts else 0
    events = []
    for pid, name in process_names.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": name}})
    for span in trace.spans:
        args = dict(span.args)
        args.update(id=span.sid, parent=span.parent,
                    self_ms=round(span.self_ns / 1e6, 6))
        if span.hot:
            args["hot"] = {
                name: {"dur_ms": round(d / 1e6, 6),
                       "self_ms": round(s / 1e6, 6), "calls": c}
                for name, (d, s, c) in span.hot.items()
            }
        events.append({
            "name": span.name, "cat": MODULES[span.name.split(".")[0]],
            "ph": "X", "pid": span.pid, "tid": span.tid,
            "ts": (span.start - origin) / 1e3, "dur": span.dur_ns / 1e3,
            "args": args,
        })
    for event in client_events:
        events.append(dict(event, ts=(event["ts"] - origin) / 1e3,
                           dur=event["dur"] / 1e3))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": stamp}


def self_time_table(trace: Trace, ops: int, wall_s: float,
                    unattributed_s: float) -> str:
    """Per-layer self times of every traced call, as text.

    The footer accounts for the traced operations' wall time: the
    part top-level spans cover plus the unattributed remainder.
    """
    rows = trace.layer_self_s()
    total = sum(rows.values())
    lines = [f"{'layer (self time)':<26} {'s':>10} {'share':>7}"]
    for layer, seconds in rows.items():
        share = seconds / total if total else 0.0
        lines.append(f"{layer:<26} {seconds:>10.4f} {share:>7.1%}")
    lines.append(
        f"{ops} traced operations: wall {wall_s:.4f} s = spans "
        f"{wall_s - unattributed_s:.4f} s + unattributed "
        f"{unattributed_s:.4f} s"
    )
    return "\n".join(lines)
