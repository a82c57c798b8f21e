"""In-memory span tracer installed around the public calls of each layer.

The tracer never edits the program: :func:`install` replaces public
functions and methods of ``repro`` modules with timing wrappers, from
the benchmark's own files, in the process that will run them.  Each
wrapped call becomes either

* a **span** -- name, start, end, parent span, thread and a few
  arguments -- for calls made a handful of times per operation, or
* a **hot call** -- summed per (name, enclosing span) into a duration,
  a self time and a call count -- for calls made once per SEV row
  (review, insert, per-row fold, the record scan), where one span
  each would cost more memory than the work they time.

A span's self time is its duration minus the time its direct traced
children (spans and hot calls) cover.  Spans stay in memory and are
written once, by :meth:`Tracer.dump`, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes


class _Frame:
    __slots__ = ("sid", "coarse", "child", "hot")

    def __init__(self, sid: int, coarse: "Optional[_Frame]") -> None:
        self.sid = sid
        # Nearest enclosing span frame (itself for a span frame).
        self.coarse = coarse if coarse is not None else self
        self.child = 0  # ns covered by direct traced children
        self.hot: Optional[Dict[str, List[int]]] = None


class Tracer:
    """Spans and hot-call sums of one process."""

    def __init__(self) -> None:
        self.enabled = True
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.hot: List[list] = []
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._roots: List[_Frame] = []

    # -- frame stack -------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            root = _Frame(0, None)
            root.hot = {}
            stack = self._local.stack = [root]
            with self._id_lock:
                self._roots.append(root)
        return stack

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    # -- wrappers ----------------------------------------------------

    def span(self, name: str, func: Callable,
             describe: Optional[Callable] = None,
             enter: Optional[Callable] = None) -> Callable:
        """Wrap ``func`` so each call records one span.

        ``describe(args, kwargs, result, before)`` returns the span's
        arguments; ``before`` is ``enter(args, kwargs)`` taken at entry,
        so a span can record a delta.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1]
            frame = _Frame(tracer._next_id(), None)
            before = enter(args, kwargs) if enter else None
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent.child += duration
                info = (describe(args, kwargs, result, before)
                        if describe else None)
                tracer.spans.append([
                    frame.sid, parent.coarse.sid, name, start, end,
                    duration - frame.child, threading.get_ident(), info,
                ])
                if frame.hot:
                    for hot_name, sums in frame.hot.items():
                        tracer.hot.append([frame.sid, hot_name, *sums])

        return wrapper

    def hot_call(self, name: str, func: Callable) -> Callable:
        """Wrap a per-row ``func``: sum its time into the enclosing span."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1]
            frame = _Frame(-1, parent.coarse)
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent.child += duration
                tracer._add_hot(frame.coarse, name, duration,
                                duration - frame.child)

        return wrapper

    def hot_drain(self, name: str, func: Callable) -> Callable:
        """Wrap a generator function: time spent inside ``next`` only.

        The consumer's work between items is not counted, so the sum
        is the cost of draining the generator alone.
        """
        tracer = self

        def drain(gen):
            while True:
                if not tracer.enabled:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    yield item
                    continue
                stack = tracer._stack()
                parent = stack[-1]
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    parent.child += duration
                    tracer._add_hot(parent.coarse, name, duration, duration)
                yield item

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return drain(func(*args, **kwargs))

        return wrapper

    @staticmethod
    def _add_hot(coarse: _Frame, name: str, duration: int,
                 self_ns: int) -> None:
        if coarse.hot is None:
            coarse.hot = {}
        sums = coarse.hot.get(name)
        if sums is None:
            coarse.hot[name] = [duration, self_ns, 1]
        else:
            sums[0] += duration
            sums[1] += self_ns
            sums[2] += 1

    def record(self, name: str, start: int, end: int) -> None:
        """Add a top-level span for work timed outside any wrapper."""
        self.spans.append([self._next_id(), 0, name, start, end,
                           end - start, threading.get_ident(), None])

    # -- export ------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span and hot-call sum as JSON (durations in ns)."""
        hot = list(self.hot)
        for root in self._roots:
            for hot_name, sums in (root.hot or {}).items():
                hot.append([0, hot_name, *sums])
        payload = {
            "pid": self.pid,
            "fields": ["id", "parent", "name", "start_ns", "end_ns",
                       "self_ns", "tid", "args"],
            "spans": self.spans,
            "hot_fields": ["span", "name", "dur_ns", "self_ns", "calls"],
            "hot": hot,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


# -- what gets wrapped ---------------------------------------------------

#: Analysis methods timed per call, by the per-layer metric they feed.
_ANALYSIS_SPANS = ("prepare", "fold_batch", "fold_sql", "merge",
                   "finalize", "batch")


def _store_rows(args, kwargs, result, before):
    return {"rows": len(result)} if result is not None else None


def _ticket_count(args, kwargs, result, before):
    return {"tickets": len(result.tickets)} if result is not None else None


def _batch_rows(args, kwargs, result, before):
    batch = args[1] if len(args) > 1 else kwargs.get("batch")
    return {"rows": len(batch)}


def _records_rows(args, kwargs, result, before):
    records = args[1] if len(args) > 1 else kwargs.get("records")
    try:
        return {"rows": len(records)}
    except TypeError:
        return None


def _fallbacks(args, kwargs):
    return args[0].columnar_fallbacks


def _executor_run(args, kwargs, result, before):
    executor = args[0]
    return {
        "backend": executor.backend,
        "jobs": executor.jobs,
        "processes": executor.use_processes,
        "fallbacks": executor.columnar_fallbacks - before,
    }


def _intra_report(args, kwargs, result, before):
    return {"backend": kwargs.get("backend", args[1] if len(args) > 1
                                  else "stream")}


def _cache_lookup(args, kwargs, result, before):
    if result is None:
        return None
    return {"hit": bool(result[0])}


def _handle(args, kwargs, result, before):
    if result is None:
        return None
    method = args[1] if len(args) > 1 else kwargs.get("method")
    path = args[2] if len(args) > 2 else kwargs.get("path")
    return {"method": method, "path": path, "status": result[0]}


def _ingest_rows(args, kwargs, result, before):
    return {"rows": result} if isinstance(result, int) else None


def _patch(owner, attr: str, wrapper_for: Callable[[Callable], Callable],
           rebind=()) -> None:
    original = getattr(owner, attr)
    wrapped = wrapper_for(original)
    setattr(owner, attr, wrapped)
    for module in rebind:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _patch_method(cls, attr: str, wrapper_for) -> None:
    raw = cls.__dict__.get(attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_for(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_for(getattr(cls, attr)))


def _all_subclasses(cls) -> list:
    seen, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in seen:
            seen.append(sub)
            pending.extend(sub.__subclasses__())
    return seen


def install(tracer: Tracer) -> Tracer:
    """Wrap the public calls of every traced layer in this process.

    Imports the modules it wraps.  Rebinds names that other modules
    imported by value (``from repro import paper_scenario``) so those
    callers are traced too.  Worker processes forked later start with
    tracing off: their spans could not reach this process's dump.
    """
    import repro
    import repro.cli
    import repro.core
    import repro.core.reports
    import repro.faultline.oracle
    import repro.runtime
    import repro.runtime.analyses  # registers every Analysis subclass
    import repro.runtime.cache
    import repro.runtime.columns
    import repro.runtime.executor
    import repro.scenarios.spec
    import repro.serve.api
    import repro.serve.jobs
    import repro.serve.payloads
    import repro.serve.warm
    import repro.simulation
    import repro.simulation.backbone_sim
    import repro.simulation.generator
    import repro.simulation.scenarios
    import repro.survivability
    import repro.survivability.analysis
    import repro.survivability.trials
    from repro.incidents.store import SEVStore
    from repro.incidents.workflow import SEVAuthoringWorkflow
    from repro.runtime.analysis import Analysis

    span, hot = tracer.span, tracer.hot_call

    def spanned(name, describe=None, enter=None):
        return lambda func: span(name, func, describe, enter)

    # repro.scenarios
    _patch(repro.simulation.scenarios, "paper_scenario",
           spanned("scenarios.paper_scenario"),
           rebind=(repro, repro.cli, repro.simulation))
    _patch_method(repro.scenarios.spec.ScenarioSpec, "materialize",
                  spanned("scenarios.materialize"))
    # repro.simulation
    _patch_method(repro.simulation.generator.IntraSimulator, "run",
                  spanned("simulation.intra", _store_rows))
    _patch_method(repro.simulation.backbone_sim.BackboneSimulator, "run",
                  spanned("simulation.backbone", _ticket_count))
    # repro.incidents
    _patch_method(SEVAuthoringWorkflow, "review",
                  lambda f: hot("incidents.review", f))
    _patch_method(SEVStore, "insert", lambda f: hot("incidents.insert", f))
    _patch_method(SEVStore, "insert_many",
                  spanned("incidents.insert_many", _ingest_rows))
    _patch_method(SEVStore, "bulk_load",
                  spanned("incidents.bulk_load", _ingest_rows))
    _patch_method(SEVStore, "all_reports",
                  lambda f: tracer.hot_drain("incidents.scan", f))
    # repro.survivability
    _patch(repro.survivability.trials, "generate_trials",
           spanned("survivability.generate_trials"),
           rebind=(repro, repro.survivability))
    # repro.runtime
    originals = []
    for cls in _all_subclasses(Analysis):
        for attr in ("fold",) + _ANALYSIS_SPANS:
            func = getattr(cls, attr)
            if func is getattr(Analysis, attr) and attr in (
                    "fold_batch", "fold_sql", "batch"):
                continue  # keep the has_*() opt-in checks truthful
            originals.append((cls, attr, func))
    for cls, attr, func in originals:
        if attr == "fold":
            setattr(cls, attr, hot("runtime.fold", func))
        else:
            setattr(cls, attr, span(
                f"runtime.{attr}", func,
                _batch_rows if attr == "fold_batch" else None,
            ))
    _patch_method(repro.runtime.columns.SEVColumnBatch, "from_records",
                  spanned("runtime.transpose", _records_rows))
    _patch(repro.runtime.columns, "sev_batches_from_store",
           lambda f: tracer.hot_drain("runtime.transpose_scan", f))
    _patch_method(repro.runtime.executor.Executor, "run",
                  spanned("runtime.Executor.run", _executor_run, _fallbacks))
    _patch(repro.runtime.executor, "run_intra_report",
           spanned("runtime.run_intra_report", _intra_report),
           rebind=(repro.runtime, repro.serve.payloads))
    # repro.runtime.cache
    _patch_method(repro.runtime.cache.ResultCache, "lookup",
                  spanned("cache.lookup", _cache_lookup))
    _patch_method(repro.runtime.cache.ResultCache, "store",
                  spanned("cache.store"))
    # repro.core, repro.viz, repro.faultline.oracle
    _patch(repro.core.reports, "backbone_study_report",
           spanned("core.backbone_study_report"), rebind=(repro.core, repro))
    for cls in (repro.core.reports.IntraStudyReport,
                repro.core.reports.BackboneStudyReport,
                repro.survivability.analysis.SurvivabilityStudyReport):
        _patch_method(cls, "render", spanned("viz.render"))
    _patch(repro.faultline.oracle, "report_digest",
           spanned("oracle.report_digest"))
    # repro.serve
    _patch_method(repro.serve.api.ServeApp, "handle",
                  spanned("serve.handle", _handle))
    _patch_method(repro.serve.api.ServeState, "report_payload",
                  spanned("serve.report_payload"))
    _patch_method(repro.serve.api.ServeState, "figure_payload",
                  spanned("serve.figure_payload"))
    _patch_method(repro.serve.warm.CacheWarmer, "prewarm",
                  spanned("serve.prewarm"))
    _patch(repro.serve.jobs, "execute_job", spanned("serve.execute_job"))

    def _off_in_child() -> None:
        tracer.enabled = False

    os.register_at_fork(after_in_child=_off_in_child)
    return tracer
