"""Interchangeable execution backends over the analysis protocol.

One executor, three strategies for answering the same set of
:class:`~repro.runtime.analysis.Analysis` questions:

``batch``
    per-analysis shortcut over the corpus' batch substrate (each
    analysis' :meth:`~repro.runtime.analysis.Analysis.batch` — the
    original :mod:`repro.core` implementations: SQL over the
    :class:`~repro.incidents.store.SEVStore` for the SEV domain, the
    :class:`~repro.backbone.monitor.BackboneMonitor` queries for the
    ticket domain); analyses without a usable shortcut share one fold
    pass.
``stream``
    one fused pass over the record stream: every analysis' state is
    folded record by record, so a full report costs exactly one corpus
    scan instead of one scan per artifact.
``columnar`` (also accepted as ``sharded``)
    the corpus is scanned as :class:`~repro.runtime.columns.ColumnBatch`
    chunks and every opted-in analysis absorbs whole batches with
    array-at-a-time operations (``Analysis.fold_batch``); analyses
    that did not opt in — and any batch whose columnar fold raises
    (the ``runtime.fold`` fault site) — fall back to the per-row
    reference ``fold`` over the batch's materialized records, so the
    results are bit-identical by construction.  With
    ``use_processes=True`` the batches are packed into ``jobs`` worker
    shards and shipped as chunk-framed columns (no pickled dataclass
    streams); each shard folds its own states in a worker process and
    the shard states merge — because the merge law is associative and
    commutative, the parallel result is bit-identical to the serial
    one.  ``sharded`` names this same columnar transport: the executor
    keeps the name the caller gave, so cache keys and labels do not
    change.

Worker processes come from one module-level pool shared across
executor runs (:func:`shutdown_executor_pool` closes it
deterministically; it also closes at interpreter exit) — repeat
reports and ``repro.serve`` jobs pay process spawn cost once, not per
run.

Analyses of different domains can ride in one run: the executor groups
them by :attr:`~repro.runtime.analysis.Analysis.domain` and resolves
each group's :class:`~repro.runtime.domain.Corpus` from the context.

All backends agree exactly on every count-derived artifact; fold
backends answer percentiles from quantile sketches, exact below the
sketch budget and bounded by the bin width beyond it.

Give the executor a :class:`~repro.runtime.cache.ResultCache` and
finalized results are keyed by the corpus fingerprint of the analysis'
domain: re-running the same questions over an unchanged corpus
performs no pass at all.
"""

from __future__ import annotations

import atexit
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.reports import BackboneStudyReport, IntraStudyReport
from repro.faultline import hooks
from repro.faultline.plan import ColumnFoldCrash, ShardWorkerCrash
from repro.runtime.analysis import Analysis, RunContext
from repro.runtime.analyses import (
    backbone_report_analyses,
    intra_report_analyses,
)
from repro.runtime.cache import ResultCache

__all__ = [
    "BACKENDS",
    "Executor",
    "run_backbone_report",
    "run_intra_report",
    "shutdown_executor_pool",
]

BACKENDS = ("batch", "stream", "sharded", "columnar")


# -- the shared worker pool --------------------------------------------
#
# One ProcessPoolExecutor reused across Executor runs: spawning a pool
# per run costs more than small parallel folds win, so repeat reports
# (and every repro.serve job) would pay process startup over and over.
# The pool grows to the widest request and is torn down only on a
# broken pool, an explicit shutdown, or interpreter exit.

_POOL = None
_POOL_WIDTH = 0


def _shared_pool(workers: int):
    """The process pool, (re)built only when too narrow or closed."""
    global _POOL, _POOL_WIDTH
    if _POOL is not None and _POOL_WIDTH < workers:
        shutdown_executor_pool()
    if _POOL is None:
        from concurrent.futures import ProcessPoolExecutor

        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WIDTH = workers
    return _POOL


def shutdown_executor_pool() -> None:
    """Close the shared worker pool; idempotent.

    The next parallel run builds a fresh pool.  Registered atexit, so
    short-lived processes need not call it themselves.
    """
    global _POOL, _POOL_WIDTH
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_WIDTH = 0


atexit.register(shutdown_executor_pool)


class Executor:
    """Runs a set of analyses over their corpora with one strategy."""

    def __init__(
        self,
        backend: str = "batch",
        jobs: int = 4,
        cache: Optional[ResultCache] = None,
        use_processes: bool = False,
        batch_size: Optional[int] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.backend = backend
        self.jobs = jobs
        self.cache = cache
        self.use_processes = use_processes
        #: Rows per column batch on the columnar paths (None = the
        #: :data:`~repro.runtime.columns.COLUMN_BATCH_ROWS` default).
        self.batch_size = batch_size
        #: How many columnar batch folds fell back to the per-row path
        #: (a raised ``fold_batch``, e.g. the ``runtime.fold`` fault
        #: site), cumulative over this executor's serial-path runs.
        self.columnar_fallbacks = 0

    # -- public entry point ------------------------------------------

    def run(
        self,
        analyses: Sequence[Analysis],
        context: RunContext,
        source: Optional[Iterable] = None,
    ) -> Dict[str, Any]:
        """Answer every analysis; returns ``{analysis.name: result}``.

        ``source`` overrides the record stream (an iterable of the
        analyses' record kind — valid only when every corpus analysis
        in the run shares one domain); by default fold backends replay
        the domain corpus resolved from the context.  Results are
        cached per corpus fingerprint when a cache is configured and
        the records come from a fingerprintable corpus (an anonymous
        iterator has no fingerprint).
        """
        analyses = list(analyses)
        names = [a.name for a in analyses]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate analysis names in {names}")

        results: Dict[str, Any] = {}
        pending: List[Analysis] = []
        keys: Dict[str, str] = {}
        if self.cache is not None and source is None:
            fingerprints: Dict[str, Optional[str]] = {}
            for analysis in analyses:
                # Context-only analyses key on the SEV corpus, the
                # report they ride along with.
                domain = analysis.domain if analysis.requires_corpus else "sev"
                if domain not in fingerprints:
                    corpus = context.corpus_for(domain)
                    fingerprints[domain] = (
                        corpus.fingerprint() if corpus is not None else None
                    )
                fingerprint = fingerprints[domain]
                if fingerprint is None:
                    pending.append(analysis)
                    continue
                key = self._key(fingerprint, analysis, context)
                hit, value = self.cache.lookup(key)
                if hit:
                    results[analysis.name] = value
                else:
                    keys[analysis.name] = key
                    pending.append(analysis)
        else:
            pending = analyses

        if pending:
            computed = self._execute(pending, context, source)
            for analysis in pending:
                value = computed[analysis.name]
                results[analysis.name] = value
                key = keys.get(analysis.name)
                if key is not None:
                    self.cache.store(key, value)
        return results

    def _key(self, fingerprint: str, analysis: Analysis,
             context: RunContext) -> str:
        return ResultCache.key(
            fingerprint, analysis.name, self.backend,
            context.year, context.baseline_year, context.window_h,
        )

    # -- strategies --------------------------------------------------

    def _execute(self, analyses: Sequence[Analysis], context: RunContext,
                 source: Optional[Iterable]) -> Dict[str, Any]:
        corpus_analyses = [a for a in analyses if a.requires_corpus]
        contextual = [a for a in analyses if not a.requires_corpus]
        results = {a.name: a.finalize(None, context) for a in contextual}

        by_domain: Dict[str, List[Analysis]] = {}
        for analysis in corpus_analyses:
            by_domain.setdefault(analysis.domain, []).append(analysis)
        if source is not None and len(by_domain) > 1:
            raise ValueError(
                "an explicit source iterable can feed only one domain; "
                f"this run folds {sorted(by_domain)}"
            )

        for domain, group in by_domain.items():
            corpus = context.corpus_for(domain)
            if self.backend == "batch":
                folded = []
                for analysis in group:
                    if analysis.can_batch(context):
                        results[analysis.name] = analysis.batch(context)
                    else:
                        folded.append(analysis)
                if folded:
                    states = self._fold_partitions_pushdown(
                        folded, context, corpus, source
                    )
                    if states is None:
                        states = self._fold_pass(
                            folded, context,
                            self._records(domain, corpus, source),
                        )
                    results.update(self._finalize(folded, states, context))
            elif self.backend == "stream":
                states = self._fold_pass(
                    group, context, self._records(domain, corpus, source)
                )
                results.update(self._finalize(group, states, context))
            else:  # columnar, or its alias sharded
                states = self._fold_columnar(group, context, corpus,
                                             source, domain)
                results.update(self._finalize(group, states, context))
        return results

    @staticmethod
    def _records(domain: str, corpus, source: Optional[Iterable]) -> Iterable:
        if source is not None:
            return source
        if corpus is None:
            raise ValueError(
                f"no record source for domain {domain!r}: provide its "
                "substrate in the context or an explicit source iterable"
            )
        return corpus.records()

    # -- fold machinery ----------------------------------------------

    @staticmethod
    def _prepare(analyses: Sequence[Analysis], context: RunContext):
        """(states, owners): one state per distinct state_key.

        The owner — the first analysis declaring a key — does the
        folding and merging for every sharer of that key.
        """
        states: Dict[str, Any] = {}
        owners: Dict[str, Analysis] = {}
        for analysis in analyses:
            key = analysis.state_key or analysis.name
            if key not in states:
                states[key] = analysis.prepare(context)
                owners[key] = analysis
        return states, owners

    def _fold_pass(self, analyses: Sequence[Analysis], context: RunContext,
                   records: Iterable) -> Dict[str, Any]:
        states, owners = self._prepare(analyses, context)
        folders = list(owners.items())
        for report in records:
            for key, owner in folders:
                owner.fold(report, states[key])
        return states

    def _fold_columnar(self, analyses: Sequence[Analysis],
                       context: RunContext, corpus,
                       source: Optional[Iterable],
                       domain: str) -> Dict[str, Any]:
        """The columnar backend: fold whole batches, fall back per row.

        Serial by default; with ``use_processes`` (and every owner
        opted in) the batches pack into ``jobs`` worker shards and
        travel as columns.  Either way the states are bit-identical to
        the per-row stream fold.
        """
        states, owners = self._prepare(analyses, context)
        if source is not None:
            from repro.runtime.columns import (
                COLUMN_BATCH_ROWS,
                batches_from_records,
            )

            batches: Iterable = batches_from_records(
                domain, source, self.batch_size or COLUMN_BATCH_ROWS
            )
        elif corpus is not None:
            if (self.use_processes and self.jobs > 1
                    and all(o.has_fold_batch() for o in owners.values())):
                shards = corpus.column_shards(self.jobs, self.batch_size)
                if len(shards) > 1:
                    return self._fold_columns_parallel(
                        analyses, context, owners, states, shards
                    )
            batches = corpus.column_batches(self.batch_size)
        else:
            raise ValueError(
                f"no record source for domain {domain!r}: provide its "
                "substrate in the context or an explicit source iterable"
            )
        for batch in batches:
            self.columnar_fallbacks += _fold_batch_into(
                owners, states, context, batch
            )
        return states

    def _fold_columns_parallel(self, analyses: Sequence[Analysis],
                               context: RunContext,
                               owners: Dict[str, Analysis],
                               merged: Dict[str, Any],
                               shards: List[list]) -> Dict[str, Any]:
        """Fold column-batch shards in worker processes and merge.

        Workers receive chunk-framed columns (a batch pickles its
        column lists only — no dataclass streams) and return folded
        states plus their per-row fallback count.  Crash recovery is
        :meth:`_parallel_map`'s: resubmit once, then fold that shard
        serially in the parent.
        """
        analyses = list(analyses)
        worker_context = self._worker_context(context)

        def serial(index: int) -> tuple:
            shard_states, _ = self._prepare(analyses, context)
            fallbacks = 0
            for batch in shards[index]:
                fallbacks += _fold_batch_into(
                    owners, shard_states, context, batch
                )
            return shard_states, fallbacks

        outcomes = self._parallel_map(
            _fold_column_shard_worker,
            [(analyses, worker_context, shard) for shard in shards],
            serial,
        )
        for shard_states, fallbacks in outcomes:
            self.columnar_fallbacks += fallbacks
            for key, owner in owners.items():
                merged[key] = owner.merge(merged[key], shard_states[key])
        return merged

    def _fold_partitions_pushdown(
        self, analyses: Sequence[Analysis], context: RunContext,
        corpus, source: Optional[Iterable],
    ) -> Optional[Dict[str, Any]]:
        """Per-partition SQL pushdown for SQLite-sharded corpora.

        A partitioned SEV store has no single connection for the
        analyses' ``batch`` shortcuts, but each hot shard *is* a
        monolithic-schema SQLite file — so every analysis whose state
        can be built by GROUP BY queries (``fold_sql``) runs them
        against each shard in turn, the rest fold the shard's columnar
        scan, and cold partitions fold as column batches.  Returns the
        folded states, or ``None`` when the corpus has no SQL shards
        (the caller falls back to a plain fold pass).
        """
        if source is not None or corpus is None:
            return None
        shards = corpus.sql_shards()
        if shards is None:
            return None
        from repro.runtime.columns import (
            COLUMN_BATCH_ROWS,
            batches_from_records,
            sev_batches_from_store,
        )

        size = self.batch_size or COLUMN_BATCH_ROWS
        states, owners = self._prepare(analyses, context)
        sql_owners = {k: o for k, o in owners.items() if o.has_sql_fold()}
        scan_owners = {k: o for k, o in owners.items()
                       if not o.has_sql_fold()}
        for kind, payload in shards:
            if kind == "store":
                try:
                    for key, owner in sql_owners.items():
                        owner.fold_sql(payload, states[key])
                    if scan_owners:
                        for batch in sev_batches_from_store(payload, size):
                            self.columnar_fallbacks += _fold_batch_into(
                                scan_owners, states, context, batch
                            )
                finally:
                    payload.close()
            else:
                for batch in batches_from_records(
                    corpus.domain, payload, size
                ):
                    self.columnar_fallbacks += _fold_batch_into(
                        owners, states, context, batch
                    )
        return states

    @staticmethod
    def _worker_context(context: RunContext) -> RunContext:
        """A picklable copy of the context for worker processes.

        The live substrates — SQLite store, remediation engine,
        backbone monitor, ticket database — are stripped; folding only
        reads records and the fleet.
        """
        return replace(
            context, store=None, engine=None, monitor=None, topology=None,
            tickets=None, trials=None,
        )

    def _parallel_map(self, worker, payloads: List,
                      serial) -> List[Any]:
        """Run ``worker`` over ``payloads`` in the shared pool.

        The crash-recovery contract of every parallel fold path: a
        payload whose worker dies (a real ``BrokenProcessPool``, which
        also tears the poisoned pool down so the retry gets a fresh
        one, or an injected ``executor.shard`` fault drawn in the
        parent so the fault log stays deterministic) is resubmitted
        once, and a second failure runs ``serial(index)`` in the
        parent with the fault site suppressed.
        """
        from concurrent.futures.process import BrokenProcessPool

        results: List[Any] = [None] * len(payloads)

        def submit(index: int):
            if hooks.fire("executor.shard"):
                raise ShardWorkerCrash("injected shard-worker crash")
            return _shared_pool(len(payloads)).submit(
                worker, payloads[index]
            )

        crashed: List[int] = []
        pending = {}
        for index in range(len(payloads)):
            try:
                pending[index] = submit(index)
            except Exception:
                crashed.append(index)
        for index, future in pending.items():
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                shutdown_executor_pool()
                crashed.append(index)
            except Exception:
                crashed.append(index)
        for index in crashed:
            try:
                results[index] = submit(index).result()
            except Exception:
                with hooks.suppressed("executor.shard"):
                    results[index] = serial(index)
        return results

    @staticmethod
    def _finalize(analyses: Sequence[Analysis], states: Dict[str, Any],
                  context: RunContext) -> Dict[str, Any]:
        return {
            a.name: a.finalize(states[a.state_key or a.name], context)
            for a in analyses
        }


def _fold_batch_into(owners: Dict[str, Analysis], states: Dict[str, Any],
                     context: RunContext, batch) -> int:
    """Fold one column batch into every owner's state.

    Opted-in owners fold the batch array-at-a-time into a fresh
    scratch state, merged in afterwards — so a fold that raises
    mid-batch (the ``runtime.fold`` fault site, or a genuine bug in a
    ``fold_batch``) discards the partial scratch and replays the batch
    through the per-row reference ``fold``, leaving the merged states
    exactly as if the fast path had never been tried.  Owners without
    a columnar fold take the per-row path directly.  Returns how many
    folds fell back.
    """
    fallbacks = 0
    for key, owner in owners.items():
        if owner.has_fold_batch():
            scratch = owner.prepare(context)
            try:
                if hooks.fire("runtime.fold"):
                    raise ColumnFoldCrash(
                        "injected columnar fold crash"
                    )
                owner.fold_batch(batch, scratch)
            except Exception:
                fallbacks += 1
                with hooks.suppressed("runtime.fold"):
                    scratch = owner.prepare(context)
                    for record in batch.records:
                        owner.fold(record, scratch)
            states[key] = owner.merge(states[key], scratch)
        else:
            state = states[key]
            for record in batch.records:
                owner.fold(record, state)
    return fallbacks


def _fold_column_shard_worker(payload) -> tuple:
    """Top-level worker body for the parallel columnar backend."""
    analyses, context, batches = payload
    states, owners = Executor._prepare(analyses, context)
    fallbacks = 0
    for batch in batches:
        fallbacks += _fold_batch_into(owners, states, context, batch)
    return states, fallbacks


# -- report conveniences -----------------------------------------------


def run_intra_report(
    context: RunContext,
    backend: str = "stream",
    jobs: int = 4,
    cache: Optional[ResultCache] = None,
    source: Optional[Iterable] = None,
    use_processes: bool = False,
) -> IntraStudyReport:
    """Every intra data center artifact from one corpus, one executor run.

    With the default ``stream`` backend the whole report costs exactly
    one corpus pass; with a cache, an unchanged corpus costs none.
    ``use_processes=True`` makes the ``columnar`` (alias ``sharded``)
    backend fold its column shards in parallel worker processes
    (bit-identical results).
    """
    executor = Executor(backend=backend, jobs=jobs, cache=cache,
                        use_processes=use_processes)
    results = executor.run(intra_report_analyses(), context, source=source)
    severity = results["severity_by_device"]
    return IntraStudyReport(
        root_causes=results["root_causes"],
        rates=results["incident_rates"],
        severity=severity,
        severity_over_time=results["severity_over_time"],
        distribution=results["distribution"],
        designs=results["design_comparison"],
        switches=results["switch_reliability"],
        growth=results["growth"],
        last_year=severity.year,
    )


def run_backbone_report(
    context: RunContext,
    cache: Optional[ResultCache] = None,
    backend: str = "batch",
    jobs: int = 4,
    source: Optional[Iterable] = None,
    use_processes: bool = False,
) -> BackboneStudyReport:
    """Every backbone artifact from one ticket corpus, one executor run.

    The ticket-domain sibling of :func:`run_intra_report`: the same
    backends, the same merge law, the same cache.  The context needs a
    ticket source (a monitor, a ticket database, or an explicit
    ``source`` iterable of completed tickets) and a topology (its own
    or the monitor's).
    """
    executor = Executor(backend=backend, jobs=jobs, cache=cache,
                        use_processes=use_processes)
    results = executor.run(backbone_report_analyses(), context, source=source)
    return BackboneStudyReport(
        reliability=results["backbone_reliability"],
        continents=results["continent_table"],
        window_h=context.window_h,
        vendors=results["vendor_scorecards"],
        durations=results["repair_durations"],
    )
