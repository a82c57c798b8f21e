"""The built-in benchmark suite (``python -m repro bench``).

Four hot paths, each measured with :mod:`repro.perf` primitives and
recorded as a JSON :class:`~repro.perf.record.BenchRecord`:

``stream_throughput``
    sharded parallel corpus generation (cells -> aggregates -> merge)
    at several worker counts, including ``jobs="auto"``; reports
    events/s per worker count and the jobs=4 speedup over serial.
``ingest_bulk_load``
    loading one corpus into an on-disk :class:`~repro.incidents.store.SEVStore`
    three ways: row-wise ``insert`` (one transaction per row — the
    historical behavior), ``insert_many`` (one transaction), and
    ``bulk_load`` (indexes dropped, tuned PRAGMAs, ``executemany``
    batches); plus the tiered store's ``ingest`` routing the same rows
    to per-(year, region) SQLite shards at multi-shard scale.  Reports
    rows/s per method and the bulk speedup.
``partitioned_scan``
    the full intra report over a monolithic store vs a tiered
    partitioned store (half its history demoted to the gzip cold
    tier), on the streaming and sharded backends; asserts every
    variant's ``report_digest`` is bit-identical and reports the
    partitioned-scan overhead.
``fold_matrix``
    the fold engine across every execution strategy (per-row serial
    fold, SQL batch, columnar, sharded and columnar on the shared
    process pool) × both storage layouts; asserts all ten digests
    are bit-identical and reports the columnar speedup over the
    serial fold plus the process pool's speedup over serial columnar
    and its efficiency per usable core, ``min(jobs, cpu_count)``.
``backbone_report``
    the section 6 ticket-domain report answered by every runtime
    backend — batch (monitor path), streaming fold, sharded fold
    (serial and process-parallel) — plus a content-addressed cached
    re-run; reports tickets/s per backend and the cache speedup, and
    asserts all backends agree bit for bit.
``serve_latency``
    a live :mod:`repro.serve` server under concurrent readers plus one
    job-submitting writer; reports requests/s and p50/p99 latency per
    endpoint with zero tolerated errors.
``grid_sweep``
    a small what-if lattice expanded by :class:`~repro.scenarios.GridSpec`
    and run through :class:`~repro.scenarios.GridRunner` on the batch,
    sharded, and columnar backends (fresh :class:`~repro.runtime.ResultCache`
    per backend) followed by a warm re-run; reports cells/s per backend,
    the cached re-run's cache-hit ratio, and asserts the grid's
    ``summary_digest`` is bit-identical across backends.
``survivability``
    the correlated-failure survivability study over one generated
    trial corpus, answered by the batch, sharded (process-parallel),
    and columnar backends plus a warm cached re-run; asserts every
    backend's ``report_digest`` is bit-identical and reports rows/s
    per backend and the cache-hit ratio.

The suite prints rendered tables and writes one record per benchmark
to the output directory, so successive PRs accumulate a comparable
performance trajectory.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.perf.record import BenchRecord, write_record
from repro.perf.timers import events_per_second

#: Default corpus scale for the full suite (the scale the throughput
#: acceptance numbers are quoted at) and for ``--quick``.
FULL_SCALE = 4.0
QUICK_SCALE = 1.0

_JOBS_FULL: Tuple = (1, 2, 4, "auto")
_JOBS_QUICK: Tuple = (1, 2, "auto")


def bench_stream_throughput(
    seed: int = 2,
    scale: float = FULL_SCALE,
    jobs_list: Sequence = _JOBS_FULL,
    rounds: int = 3,
) -> BenchRecord:
    """Measure sharded generation throughput per worker count.

    Each worker count runs ``rounds`` times and keeps the best time —
    the steady state the reused worker pool is built for.  The record
    also carries the cross-jobs digest check: every worker count must
    produce bit-identical aggregates.
    """
    from repro.simulation.scenarios import paper_scenario
    from repro.stream import generate_aggregates
    from repro.stream.sharding import resolve_jobs, shutdown_pool

    scenario = paper_scenario(seed=seed, scale=scale)
    per_jobs = []
    digests = set()
    events = 0
    for jobs in jobs_list:
        best = float("inf")
        for _ in range(max(1, rounds)):
            start = time.perf_counter()
            aggregates = generate_aggregates(
                scenario, jobs=jobs, use_processes=jobs != 1
            )
            best = min(best, time.perf_counter() - start)
        events = aggregates.events
        digests.add(aggregates.digest())
        per_jobs.append({
            "jobs": jobs,
            "resolved_jobs": resolve_jobs(jobs, total_weight=events),
            "seconds": best,
            "events": events,
            "events_per_s": events_per_second(events, best),
        })
    shutdown_pool()

    by_jobs = {entry["jobs"]: entry for entry in per_jobs}
    metrics = {
        "events": events,
        "digests_identical": len(digests) == 1,
        "per_jobs": per_jobs,
    }
    if 1 in by_jobs:
        for jobs, entry in by_jobs.items():
            if jobs == 1:
                continue
            metrics[f"speedup_jobs{jobs}"] = (
                by_jobs[1]["seconds"] / entry["seconds"]
                if entry["seconds"] > 0 else 0.0
            )
    return BenchRecord(
        name="stream_throughput",
        params={
            "seed": seed, "scale": scale,
            "jobs": list(jobs_list), "rounds": rounds,
        },
        metrics=metrics,
    )


def bench_ingest(
    seed: int = 2,
    scale: float = FULL_SCALE,
    directory: Optional[Path] = None,
) -> BenchRecord:
    """Measure SEV store ingestion: row-wise vs batched vs bulk.

    Every variant loads the identical report list into a fresh
    *on-disk* database (durability costs are the point), and the
    loaded stores are checked for identical row counts.
    """
    from repro.incidents.store import SEVStore
    from repro.simulation.generator import iter_scenario_reports
    from repro.simulation.scenarios import paper_scenario

    scenario = paper_scenario(seed=seed, scale=scale)
    reports = list(iter_scenario_reports(scenario))

    def timed_load(name: str, load) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            with SEVStore(str(Path(tmp) / f"{name}.db")) as store:
                start = time.perf_counter()
                load(store)
                seconds = time.perf_counter() - start
                rows = len(store)
        assert rows == len(reports)
        return {
            "method": name,
            "seconds": seconds,
            "rows": rows,
            "rows_per_s": events_per_second(rows, seconds),
        }

    def rowwise(store):
        for report in reports:
            store.insert(report)

    variants = [
        timed_load("insert_rowwise", rowwise),
        timed_load("insert_many", lambda s: s.insert_many(reports)),
        timed_load("bulk_load", lambda s: s.bulk_load(reports)),
    ]

    # The tiered store routes the same rows to per-(year, region)
    # SQLite shards — the multi-shard ingest path of repro.storage.
    from repro.storage import PartitionedSEVStore

    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedSEVStore.init(
            Path(tmp) / "tiered", meta={"seed": seed, "scale": scale}
        )
        start = time.perf_counter()
        store.ingest(reports)
        seconds = time.perf_counter() - start
        rows = len(store)
        partitions = len(store.partition_keys())
    assert rows == len(reports)
    variants.append({
        "method": "partitioned_ingest",
        "seconds": seconds,
        "rows": rows,
        "rows_per_s": events_per_second(rows, seconds),
        "partitions": partitions,
    })

    by_method = {entry["method"]: entry for entry in variants}
    bulk = by_method["bulk_load"]["seconds"]
    metrics = {
        "rows": len(reports),
        "partitions": partitions,
        "variants": variants,
        "bulk_speedup_vs_rowwise": (
            by_method["insert_rowwise"]["seconds"] / bulk
            if bulk > 0 else 0.0
        ),
        "bulk_speedup_vs_insert_many": (
            by_method["insert_many"]["seconds"] / bulk
            if bulk > 0 else 0.0
        ),
    }
    return BenchRecord(
        name="ingest_bulk_load",
        params={"seed": seed, "scale": scale},
        metrics=metrics,
    )


def bench_backbone(
    seed: int = 7,
    links_per_edge: int = 3,
    rounds: int = 3,
) -> BenchRecord:
    """Measure the backbone report across runtime backends.

    One ticket corpus, one :class:`~repro.runtime.RunContext`, and the
    identical section 6 report answered by each backend; every backend
    runs ``rounds`` times and keeps the best time.  A cached re-run
    (second pass against a warm :class:`~repro.runtime.ResultCache`)
    is timed separately — its corpus pass count is zero, so it bounds
    the price of the report plumbing itself.
    """
    from repro.backbone.monitor import BackboneMonitor
    from repro.runtime import ResultCache, RunContext, run_backbone_report
    from repro.simulation.backbone_sim import BackboneSimulator
    from repro.simulation.scenarios import paper_backbone_scenario

    corpus = BackboneSimulator(
        paper_backbone_scenario(seed=seed, links_per_edge=links_per_edge)
    ).run()
    monitor = BackboneMonitor(corpus.topology, corpus.tickets)
    context = RunContext(
        monitor=monitor, topology=corpus.topology,
        window_h=corpus.window_h, corpus_seed=seed,
    )
    tickets = len(corpus.tickets)

    backends = [
        ("batch", {}),
        ("stream", {}),
        ("sharded", {"jobs": 4}),
        ("sharded_processes", {"jobs": 4, "use_processes": True}),
    ]
    per_backend = []
    reports = {}
    for label, kwargs in backends:
        backend = "sharded" if label.startswith("sharded") else label
        best = float("inf")
        for _ in range(max(1, rounds)):
            start = time.perf_counter()
            report = run_backbone_report(context, backend=backend, **kwargs)
            best = min(best, time.perf_counter() - start)
        reports[label] = report
        per_backend.append({
            "backend": label,
            "seconds": best,
            "tickets": tickets,
            "tickets_per_s": events_per_second(tickets, best),
        })

    cache = ResultCache()
    run_backbone_report(context, backend="stream", cache=cache)
    best_cached = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        cached = run_backbone_report(context, backend="stream", cache=cache)
        best_cached = min(best_cached, time.perf_counter() - start)
    reports["cached"] = cached
    per_backend.append({
        "backend": "cached",
        "seconds": best_cached,
        "tickets": tickets,
        "tickets_per_s": events_per_second(tickets, best_cached),
    })

    by_backend = {entry["backend"]: entry for entry in per_backend}
    stream_s = by_backend["stream"]["seconds"]
    metrics = {
        "tickets": tickets,
        "window_h": corpus.window_h,
        "backends_identical": all(
            report == reports["batch"] for report in reports.values()
        ),
        "per_backend": per_backend,
        "cache_speedup_vs_stream": (
            stream_s / best_cached if best_cached > 0 else 0.0
        ),
    }
    return BenchRecord(
        name="backbone_report",
        params={
            "seed": seed, "links_per_edge": links_per_edge,
            "rounds": rounds,
        },
        metrics=metrics,
    )


def bench_partitioned_scan(
    seed: int = 2,
    scale: float = FULL_SCALE,
    rounds: int = 3,
) -> BenchRecord:
    """Measure the intra report over monolithic vs partitioned storage.

    One corpus, stored twice: the monolithic SQLite file and a tiered
    partitioned store with roughly half its history demoted to the
    gzip cold tier.  The identical report runs over each on the
    streaming backend (and over the partitioned store on the sharded
    backend, whose shards are the manifest's partitions); every
    variant must produce the same ``report_digest`` bit for bit — the
    storage refactor's core acceptance criterion, measured rather
    than assumed.
    """
    from repro.faultline.oracle import report_digest
    from repro.runtime import RunContext, run_intra_report
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario
    from repro.storage import PartitionedSEVStore

    scenario = paper_scenario(seed=seed, scale=scale)
    mono = IntraSimulator(scenario).run()
    rows = len(mono)

    def timed(label: str, target, backend: str, **kwargs) -> dict:
        best = float("inf")
        digest = None
        for _ in range(max(1, rounds)):
            context = RunContext(
                store=target, fleet=scenario.fleet, corpus_seed=seed
            )
            start = time.perf_counter()
            report = run_intra_report(context, backend=backend, **kwargs)
            best = min(best, time.perf_counter() - start)
            digest = report_digest(report)
        return {
            "variant": label,
            "backend": backend,
            "seconds": best,
            "rows": rows,
            "rows_per_s": events_per_second(rows, best),
            "report_digest": digest,
        }

    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedSEVStore.init(
            Path(tmp) / "tiered", meta={"seed": seed, "scale": scale}
        )
        store.ingest(mono.all_reports())
        years = store.years()
        if len(years) > 1:
            store.compact(keep_hot_years=max(1, len(years) // 2))
        tiers = store.status()["tiers"]
        variants = [
            timed("monolithic_stream", mono, "stream"),
            timed("partitioned_stream", store, "stream"),
            timed("partitioned_sharded", store, "sharded", jobs=4),
        ]

    by_variant = {entry["variant"]: entry for entry in variants}
    mono_s = by_variant["monolithic_stream"]["seconds"]
    part_s = by_variant["partitioned_stream"]["seconds"]
    metrics = {
        "rows": rows,
        "partitions": tiers["hot"] + tiers["cold"],
        "tiers": tiers,
        "digests_identical": len(
            {entry["report_digest"] for entry in variants}
        ) == 1,
        "per_variant": variants,
        "partitioned_overhead": part_s / mono_s if mono_s > 0 else 0.0,
    }
    return BenchRecord(
        name="partitioned_scan",
        params={"seed": seed, "scale": scale, "rounds": rounds},
        metrics=metrics,
    )


def fold_matrix_speedups(variants: List[dict], jobs: int,
                         cores: int) -> Dict[str, float]:
    """Speedups of the monolithic fold-matrix variants.

    ``columnar`` and ``batch_sql`` are quoted against the per-row
    serial fold.  The parallel figures compare ``columnar_processes``
    with serial ``columnar``, the fastest serial path of the same
    dialect, so a batching win is never counted as parallel speedup;
    efficiency divides by the workers that can actually run at once,
    ``min(jobs, cores)``.  A zero time gives a zero ratio.
    """
    def seconds(strategy: str) -> float:
        for entry in variants:
            if (entry["layout"] == "monolithic"
                    and entry["strategy"] == strategy):
                return entry["seconds"]
        raise KeyError(("monolithic", strategy))

    def ratio(baseline: str, variant: str) -> float:
        variant_s = seconds(variant)
        return seconds(baseline) / variant_s if variant_s > 0 else 0.0

    parallel = ratio("columnar", "columnar_processes")
    return {
        "columnar_speedup_vs_serial": ratio("serial_fold", "columnar"),
        "batch_sql_speedup_vs_serial": ratio("serial_fold", "batch_sql"),
        "parallel_speedup_vs_serial": parallel,
        "parallel_efficiency_vs_cores": parallel / max(1, min(jobs, cores)),
    }


def bench_fold_matrix(
    seed: int = 2,
    scale: float = FULL_SCALE,
    jobs: int = 4,
    rounds: int = 3,
) -> BenchRecord:
    """Measure the fold engine across execution strategies and layouts.

    One corpus, stored twice — the monolithic SQLite file and a tiered
    partitioned store with roughly half its history demoted to the
    gzip cold tier — answered by every fold strategy the runtime
    offers:

    ``serial_fold``
        the per-row reference fold (stream backend) — the baseline
        every speedup is quoted against
    ``batch_sql``
        per-analysis SQL (per-partition pushdown on the tiered store)
    ``columnar``
        array-at-a-time folds over ``ColumnBatch`` chunks
    ``sharded_processes``
        row shards folded on the shared worker pool
    ``columnar_processes``
        chunk-framed column batches shipped to the shared worker pool

    Every variant must produce the identical ``report_digest`` — the
    columnar engine's core acceptance criterion, measured rather than
    assumed.  The record carries throughput per variant, the columnar
    speedup over the serial fold, and the parallel speedup and
    efficiency of :func:`fold_matrix_speedups`.
    """
    from repro.faultline.oracle import report_digest
    from repro.runtime import (
        RunContext,
        run_intra_report,
        shutdown_executor_pool,
    )
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario
    from repro.storage import PartitionedSEVStore

    scenario = paper_scenario(seed=seed, scale=scale)
    mono = IntraSimulator(scenario).run()
    rows = len(mono)

    strategies = [
        ("serial_fold", "stream", {}),
        ("batch_sql", "batch", {}),
        ("columnar", "columnar", {}),
        ("sharded_processes", "sharded",
         {"jobs": jobs, "use_processes": True}),
        ("columnar_processes", "columnar",
         {"jobs": jobs, "use_processes": True}),
    ]

    def timed(layout: str, target, strategy: str, backend: str,
              kwargs: dict) -> dict:
        best = float("inf")
        digest = None
        for _ in range(max(1, rounds)):
            context = RunContext(
                store=target, fleet=scenario.fleet, corpus_seed=seed
            )
            start = time.perf_counter()
            report = run_intra_report(context, backend=backend, **kwargs)
            best = min(best, time.perf_counter() - start)
            digest = report_digest(report)
        return {
            "layout": layout,
            "strategy": strategy,
            "backend": backend,
            "seconds": best,
            "rows": rows,
            "rows_per_s": events_per_second(rows, best),
            "report_digest": digest,
        }

    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedSEVStore.init(
            Path(tmp) / "tiered", meta={"seed": seed, "scale": scale}
        )
        store.ingest(mono.all_reports())
        years = store.years()
        if len(years) > 1:
            store.compact(keep_hot_years=max(1, len(years) // 2))
        tiers = store.status()["tiers"]
        variants = [
            timed(layout, target, strategy, backend, kwargs)
            for layout, target in (
                ("monolithic", mono), ("partitioned", store),
            )
            for strategy, backend, kwargs in strategies
        ]
    shutdown_executor_pool()

    import os

    cores = os.cpu_count() or 1
    metrics = {
        "rows": rows,
        "jobs": jobs,
        "cores": cores,
        "partitions": tiers["hot"] + tiers["cold"],
        "tiers": tiers,
        "digests_identical": len(
            {entry["report_digest"] for entry in variants}
        ) == 1,
        "per_variant": variants,
        **fold_matrix_speedups(variants, jobs, cores),
    }
    return BenchRecord(
        name="fold_matrix",
        params={
            "seed": seed, "scale": scale, "jobs": jobs, "rounds": rounds,
        },
        metrics=metrics,
    )


def bench_grid(
    seed: int = 2,
    scale: float = 0.1,
    rounds: int = 1,
) -> BenchRecord:
    """Measure the what-if grid runner across runtime backends.

    One six-cell lattice (three fabric-rollout years × two CORE hazard
    multipliers) expanded once and run through a fresh
    :class:`~repro.runtime.ResultCache` on the batch, sharded
    (process-parallel), and columnar backends, then re-run warm on the
    batch backend.  Reports cells/s per backend and the warm re-run's
    cache-hit ratio, and asserts every backend's ``summary_digest`` is
    bit-identical — the grid runner's core acceptance criterion,
    measured rather than assumed.
    """
    from repro.runtime import ResultCache, shutdown_executor_pool
    from repro.scenarios import GridRunner, GridSpec, preset

    base = preset("paper").with_updates(seed=seed, scale=scale)
    grid = GridSpec(
        base=base,
        axes={
            "fabric_year": [2015, 2016, 2017],
            "hazard.CORE": [1.0, 1.5],
        },
    )
    cells = grid.cell_count()

    backends = [
        ("batch", {}),
        ("sharded_processes", {"jobs": 2, "use_processes": True}),
        ("columnar", {}),
    ]
    per_backend = []
    digests = set()
    warm_cache = None
    for label, kwargs in backends:
        backend = "sharded" if label.startswith("sharded") else label
        best = float("inf")
        digest = None
        for _ in range(max(1, rounds)):
            cache = ResultCache()
            runner = GridRunner(backend=backend, cache=cache, **kwargs)
            start = time.perf_counter()
            report = runner.run(grid)
            best = min(best, time.perf_counter() - start)
            digest = report["summary_digest"]
            if label == "batch":
                # Keep the populated cache for the warm re-run below.
                warm_cache = cache
        digests.add(digest)
        per_backend.append({
            "backend": label,
            "seconds": best,
            "cells": cells,
            "cells_per_s": events_per_second(cells, best),
            "summary_digest": digest,
        })
    shutdown_executor_pool()

    runner = GridRunner(backend="batch", cache=warm_cache)
    start = time.perf_counter()
    warm = runner.run(grid)
    warm_s = time.perf_counter() - start
    hits = warm["cache"]["cell_hits"]
    misses = warm["cache"]["cell_misses"]
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    digests.add(warm["summary_digest"])
    per_backend.append({
        "backend": "cached",
        "seconds": warm_s,
        "cells": cells,
        "cells_per_s": events_per_second(cells, warm_s),
        "summary_digest": warm["summary_digest"],
    })

    by_backend = {entry["backend"]: entry for entry in per_backend}
    batch_s = by_backend["batch"]["seconds"]
    metrics = {
        "cells": cells,
        "axes": grid.axis_paths,
        "digests_identical": len(digests) == 1,
        "per_backend": per_backend,
        "cache_hit_ratio": hit_ratio,
        "cache_speedup_vs_batch": batch_s / warm_s if warm_s > 0 else 0.0,
    }
    return BenchRecord(
        name="grid_sweep",
        params={"seed": seed, "scale": scale, "rounds": rounds},
        metrics=metrics,
    )


def bench_survivability(
    seed: int = 2,
    trials: int = 24,
    rounds: int = 1,
) -> BenchRecord:
    """Measure the survivability study across runtime backends.

    One correlated-failure trial corpus (generated once, timed
    separately) answered by the batch, sharded (process-parallel), and
    columnar backends through a fresh
    :class:`~repro.runtime.ResultCache`, then re-run warm on the batch
    backend.  Reports rows/s per backend and the warm re-run's
    cache-hit ratio, and asserts every backend's ``report_digest`` is
    bit-identical — the survivability family's core acceptance
    criterion, measured rather than assumed.
    """
    from repro.faultline.oracle import report_digest
    from repro.runtime import ResultCache, RunContext, shutdown_executor_pool
    from repro.survivability import generate_trials, run_survivability_report

    start = time.perf_counter()
    corpus = generate_trials(seed=seed, correlated={"trials": trials})
    generate_s = time.perf_counter() - start
    rows = len(corpus)
    context = RunContext(trials=corpus, corpus_seed=seed)

    backends = [
        ("batch", {}),
        ("sharded_processes", {"jobs": 2, "use_processes": True}),
        ("columnar", {}),
    ]
    per_backend = []
    digests = set()
    warm_cache = None
    for label, kwargs in backends:
        backend = "sharded" if label.startswith("sharded") else label
        best = float("inf")
        digest = None
        for _ in range(max(1, rounds)):
            cache = ResultCache()
            start = time.perf_counter()
            report = run_survivability_report(
                context, backend=backend, cache=cache, **kwargs
            )
            best = min(best, time.perf_counter() - start)
            digest = report_digest(report)
            if label == "batch":
                # Keep the populated cache for the warm re-run below.
                warm_cache = cache
        digests.add(digest)
        per_backend.append({
            "backend": label,
            "seconds": best,
            "rows": rows,
            "rows_per_s": events_per_second(rows, best),
            "report_digest": digest,
        })
    shutdown_executor_pool()

    hits_before = warm_cache.hits
    misses_before = warm_cache.misses
    start = time.perf_counter()
    warm = run_survivability_report(
        context, backend="batch", cache=warm_cache
    )
    warm_s = time.perf_counter() - start
    hits = warm_cache.hits - hits_before
    misses = warm_cache.misses - misses_before
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    digests.add(report_digest(warm))
    per_backend.append({
        "backend": "cached",
        "seconds": warm_s,
        "rows": rows,
        "rows_per_s": events_per_second(rows, warm_s),
        "report_digest": report_digest(warm),
    })

    by_backend = {entry["backend"]: entry for entry in per_backend}
    batch_s = by_backend["batch"]["seconds"]
    metrics = {
        "rows": rows,
        "generate_seconds": generate_s,
        "digests_identical": len(digests) == 1,
        "per_backend": per_backend,
        "cache_hit_ratio": hit_ratio,
        "cache_speedup_vs_batch": batch_s / warm_s if warm_s > 0 else 0.0,
    }
    return BenchRecord(
        name="survivability",
        params={"seed": seed, "trials": trials, "rounds": rounds},
        metrics=metrics,
    )


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def bench_serve(
    seed: int = 1,
    scale: float = 0.25,
    readers: int = 8,
    requests_per_reader: int = 25,
    writer_jobs: int = 3,
) -> BenchRecord:
    """Measure the serving layer under concurrent readers + a live writer.

    Starts a real :class:`~repro.serve.ServeApp` (pre-warmed cache) on
    an ephemeral port, then drives it with ``readers`` threads issuing
    HTTP GETs round-robin across the report, figure, table, and stats
    endpoints while one writer thread POSTs ``writer_jobs`` report
    jobs — the worst realistic mix: every read should be a cache hit
    even while the job workers grind.  Reports requests/s and p50/p99
    latency overall and per endpoint; any non-200 response counts as
    an error (and the suite treats errors as a failed run).
    """
    import json as json_mod
    import threading
    import urllib.request

    from repro.serve import ServeApp

    endpoints = [
        "/reports/intra",
        "/reports/backbone",
        "/figures/fig3",
        "/figures/fig15",
        "/tables/table2",
        "/stats",
        "/healthz",
    ]
    samples: List[Tuple[str, float]] = []
    errors: List[str] = []
    record_lock = threading.Lock()

    with ServeApp(seed=seed, scale=scale, prewarm=True) as app:
        base = app.url

        def read_worker(worker: int) -> None:
            for i in range(requests_per_reader):
                endpoint = endpoints[(worker + i) % len(endpoints)]
                start = time.perf_counter()
                try:
                    with urllib.request.urlopen(base + endpoint) as resp:
                        resp.read()
                        ok = resp.status == 200
                        problem = f"{endpoint}: HTTP {resp.status}"
                except Exception as exc:  # noqa: BLE001 - recorded below
                    ok = False
                    problem = f"{endpoint}: {exc}"
                ms = (time.perf_counter() - start) * 1e3
                with record_lock:
                    if ok:
                        samples.append((endpoint, ms))
                    else:
                        errors.append(problem)

        def write_worker() -> None:
            payload = json_mod.dumps({
                "kind": "report",
                "params": {"study": "intra", "seed": seed, "scale": 0.1},
            }).encode()
            for _ in range(writer_jobs):
                request = urllib.request.Request(
                    base + "/jobs", data=payload,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request) as resp:
                        resp.read()
                except Exception as exc:  # noqa: BLE001 - recorded below
                    with record_lock:
                        errors.append(f"POST /jobs: {exc}")

        threads = [
            threading.Thread(target=read_worker, args=(worker,))
            for worker in range(readers)
        ]
        writer = threading.Thread(target=write_worker)
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        writer.start()
        for thread in threads:
            thread.join()
        writer.join()
        seconds = time.perf_counter() - start
        app.queue.join(timeout=300)
        cache_stats = app.state.cache.stats()
        job_stats = app.queue.stats()

    latencies = sorted(ms for _, ms in samples)
    per_endpoint = {}
    for endpoint in endpoints:
        subset = sorted(ms for e, ms in samples if e == endpoint)
        per_endpoint[endpoint] = {
            "requests": len(subset),
            "p50_ms": _percentile(subset, 0.50),
            "p99_ms": _percentile(subset, 0.99),
        }
    metrics = {
        "requests": len(samples),
        "errors": len(errors),
        "error_samples": errors[:5],
        "seconds": seconds,
        "requests_per_s": events_per_second(len(samples), seconds),
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "per_endpoint": per_endpoint,
        "cache": cache_stats,
        "jobs": job_stats,
    }
    return BenchRecord(
        name="serve_latency",
        params={
            "seed": seed, "scale": scale, "readers": readers,
            "requests_per_reader": requests_per_reader,
            "writer_jobs": writer_jobs,
        },
        metrics=metrics,
    )


def render_stream_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            str(entry["jobs"]),
            entry["resolved_jobs"],
            entry["events"],
            f"{entry['seconds']:.3f}",
            f"{entry['events_per_s']:,.0f}",
        ]
        for entry in record.metrics["per_jobs"]
    ]
    return format_table(
        ["Jobs", "Workers", "Events", "Seconds", "Events/sec"],
        rows,
        title=(f"Streaming generation throughput "
               f"(scale={record.params['scale']}, "
               f"cpus={record.env['cpu_count']})"),
    )


def render_ingest_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    bulk = {e["method"]: e for e in record.metrics["variants"]}
    bulk_s = bulk["bulk_load"]["seconds"]
    rows = [
        [
            entry["method"],
            entry["rows"],
            f"{entry['seconds']:.3f}",
            f"{entry['rows_per_s']:,.0f}",
            f"{entry['seconds'] / bulk_s:.1f}x" if bulk_s > 0 else "-",
        ]
        for entry in record.metrics["variants"]
    ]
    return format_table(
        ["Method", "Rows", "Seconds", "Rows/sec", "vs bulk"],
        rows,
        title=(f"SEV store ingest, on-disk "
               f"(scale={record.params['scale']})"),
    )


def render_partitioned_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            entry["variant"],
            entry["backend"],
            entry["rows"],
            f"{entry['seconds']:.3f}",
            f"{entry['rows_per_s']:,.0f}",
        ]
        for entry in record.metrics["per_variant"]
    ]
    tiers = record.metrics["tiers"]
    return format_table(
        ["Variant", "Backend", "Rows", "Seconds", "Rows/sec"],
        rows,
        title=(f"Partitioned vs monolithic scan "
               f"({tiers['hot']} hot + {tiers['cold']} cold partitions, "
               f"identical={record.metrics['digests_identical']})"),
    )


def render_fold_matrix_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            entry["layout"],
            entry["strategy"],
            entry["rows"],
            f"{entry['seconds']:.3f}",
            f"{entry['rows_per_s']:,.0f}",
        ]
        for entry in record.metrics["per_variant"]
    ]
    metrics = record.metrics
    return format_table(
        ["Layout", "Strategy", "Rows", "Seconds", "Rows/sec"],
        rows,
        title=(f"Fold matrix (scale={record.params['scale']}, "
               f"columnar {metrics['columnar_speedup_vs_serial']:.1f}x, "
               f"processes {metrics['parallel_speedup_vs_serial']:.1f}x "
               f"serial columnar on {metrics['cores']} cores, "
               f"identical={metrics['digests_identical']})"),
    )


def render_backbone_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            entry["backend"],
            entry["tickets"],
            f"{entry['seconds']:.3f}",
            f"{entry['tickets_per_s']:,.0f}",
        ]
        for entry in record.metrics["per_backend"]
    ]
    return format_table(
        ["Backend", "Tickets", "Seconds", "Tickets/sec"],
        rows,
        title=(f"Backbone report across runtime backends "
               f"(seed={record.params['seed']}, "
               f"identical={record.metrics['backends_identical']})"),
    )


def render_grid_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            entry["backend"],
            entry["cells"],
            f"{entry['seconds']:.3f}",
            f"{entry['cells_per_s']:,.1f}",
            entry["summary_digest"][:12],
        ]
        for entry in record.metrics["per_backend"]
    ]
    metrics = record.metrics
    return format_table(
        ["Backend", "Cells", "Seconds", "Cells/sec", "Summary digest"],
        rows,
        title=(f"What-if grid sweep (scale={record.params['scale']}, "
               f"cache hits {metrics['cache_hit_ratio']:.0%}, "
               f"identical={metrics['digests_identical']})"),
    )


def render_survivability_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            entry["backend"],
            entry["rows"],
            f"{entry['seconds']:.3f}",
            f"{entry['rows_per_s']:,.1f}",
            entry["report_digest"][:12],
        ]
        for entry in record.metrics["per_backend"]
    ]
    metrics = record.metrics
    return format_table(
        ["Backend", "Rows", "Seconds", "Rows/sec", "Report digest"],
        rows,
        title=(f"Survivability study "
               f"(trials={record.params['trials']}, "
               f"gen {metrics['generate_seconds']:.3f}s, "
               f"cache hits {metrics['cache_hit_ratio']:.0%}, "
               f"identical={metrics['digests_identical']})"),
    )


def render_serve_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            endpoint,
            entry["requests"],
            f"{entry['p50_ms']:.1f}",
            f"{entry['p99_ms']:.1f}",
        ]
        for endpoint, entry in record.metrics["per_endpoint"].items()
    ]
    rows.append([
        "(all)",
        record.metrics["requests"],
        f"{record.metrics['p50_ms']:.1f}",
        f"{record.metrics['p99_ms']:.1f}",
    ])
    return format_table(
        ["Endpoint", "Requests", "p50 ms", "p99 ms"],
        rows,
        title=(f"Serve latency ({record.params['readers']} readers + "
               f"1 writer, {record.metrics['requests_per_s']:,.0f} req/s, "
               f"errors={record.metrics['errors']})"),
    )


def run_bench_suite(
    quick: bool = False,
    out_dir: Optional[Path] = None,
    seed: int = 2,
) -> List[BenchRecord]:
    """Run every benchmark; print tables; write JSON records.

    ``quick`` shrinks the corpus and the worker sweep so the suite
    finishes in seconds (the CI smoke configuration); the record
    parameters say which configuration produced the numbers.
    """
    scale = QUICK_SCALE if quick else FULL_SCALE
    jobs_list = _JOBS_QUICK if quick else _JOBS_FULL
    rounds = 1 if quick else 3

    stream = bench_stream_throughput(
        seed=seed, scale=scale, jobs_list=jobs_list, rounds=rounds
    )
    ingest = bench_ingest(seed=seed, scale=scale)
    scan = bench_partitioned_scan(
        seed=seed, scale=QUICK_SCALE if quick else scale, rounds=rounds
    )
    fold = bench_fold_matrix(
        seed=seed, scale=QUICK_SCALE if quick else scale,
        jobs=2 if quick else 4, rounds=rounds,
    )
    backbone = bench_backbone(rounds=rounds)
    grid = bench_grid(
        seed=seed, scale=0.05 if quick else 0.1, rounds=rounds
    )
    survivability = bench_survivability(
        seed=seed, trials=8 if quick else 24, rounds=rounds
    )
    serve = (
        bench_serve(scale=0.1, readers=4, requests_per_reader=10,
                    writer_jobs=1)
        if quick else bench_serve()
    )
    records = [stream, ingest, scan, fold, backbone, grid,
               survivability, serve]

    print(render_stream_record(stream))
    print()
    print(render_ingest_record(ingest))
    print()
    print(render_partitioned_record(scan))
    print()
    print(render_fold_matrix_record(fold))
    print()
    print(render_backbone_record(backbone))
    print()
    print(render_grid_record(grid))
    print()
    print(render_survivability_record(survivability))
    print()
    print(render_serve_record(serve))
    if out_dir is not None:
        for record in records:
            path = write_record(record, out_dir)
            print(f"\n[perf] wrote {path}")
    return records
