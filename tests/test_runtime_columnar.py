"""The columnar fast path: three-dialect equivalence, fallback, pool reuse.

Every mergeable state speaks three dialects of the same math — the
per-row reference ``fold``, the array-at-a-time ``fold_batch``, and
(for the SEV states) the ``fold_sql`` GROUP BY pushdown — and the
columnar engine's contract is that the dialect can never change a
finalized result: not across batch framings, not across storage
layouts, not across process boundaries, and not when a batch fold
crashes mid-flight and replays through the per-row fallback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultline import FaultPlan, FaultSpec, hooks
from repro.faultline.oracle import report_digest
from repro.runtime import RunContext, run_intra_report
from repro.runtime import executor as executor_module
from repro.runtime.analyses import intra_report_analyses
from repro.incidents.store import SEVStore
from repro.runtime.columns import sev_batches_from_store
from repro.runtime.domain import SEVCorpus
from repro.runtime.executor import Executor, shutdown_executor_pool
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.storage import PartitionedSEVStore

SEEDS = [3, 11, 42]
SCALE = 0.1


@pytest.fixture(scope="module", params=SEEDS)
def corpus(request, tmp_path_factory):
    scenario = paper_scenario(seed=request.param, scale=SCALE)
    store = IntraSimulator(scenario).run()
    tiered = PartitionedSEVStore.init(
        tmp_path_factory.mktemp("tiered") / f"sev-{request.param}"
    )
    tiered.ingest(store.all_reports())
    years = tiered.years()
    if len(years) > 1:
        tiered.compact(keep_hot_years=max(1, len(years) // 2))
    return {
        "seed": request.param,
        "fleet": scenario.fleet,
        "store": store,
        "tiered": tiered,
    }


@pytest.fixture(scope="module")
def context(corpus):
    return RunContext(store=corpus["store"], fleet=corpus["fleet"],
                      corpus_seed=corpus["seed"])


@pytest.fixture(scope="module")
def tiered_context(corpus):
    return RunContext(store=corpus["tiered"], fleet=corpus["fleet"],
                      corpus_seed=corpus["seed"])


@pytest.fixture(scope="module")
def batch_report(context):
    return run_intra_report(context, backend="batch")


class TestThreeDialectEquivalence:
    def test_every_opted_in_analysis_agrees_across_dialects(
        self, corpus, context
    ):
        # The satellite property, spelled per analysis: fold,
        # fold_batch, and (where offered) fold_sql reach bit-identical
        # finalized results over the same corpus.
        store = corpus["store"]
        checked = 0
        for analysis in intra_report_analyses():
            if not (analysis.requires_corpus and analysis.has_fold_batch()):
                continue
            state = analysis.prepare(context)
            for report in store.all_reports():
                analysis.fold(report, state)
            reference = analysis.finalize(state, context)

            state = analysis.prepare(context)
            for batch in sev_batches_from_store(store, batch_size=100):
                analysis.fold_batch(batch, state)
            assert analysis.finalize(state, context) == reference, (
                analysis.name
            )

            if analysis.has_sql_fold():
                state = analysis.prepare(context)
                analysis.fold_sql(store, state)
                assert analysis.finalize(state, context) == reference, (
                    analysis.name
                )
            checked += 1
        assert checked >= 6

    @settings(max_examples=8, deadline=None)
    @given(batch_size=st.integers(min_value=1, max_value=384))
    def test_batch_framing_never_changes_the_report(
        self, context, batch_report, batch_size
    ):
        # The merge law in action: any chunking of the corpus into
        # column batches folds to the identical report.
        executor = Executor(backend="columnar", batch_size=batch_size)
        results = executor.run(intra_report_analyses(), context)
        reference = Executor(backend="batch").run(
            intra_report_analyses(), context
        )
        assert results == reference

    def test_columnar_equals_batch_over_partitions(
        self, tiered_context, batch_report
    ):
        assert run_intra_report(
            tiered_context, backend="columnar"
        ) == batch_report

    def test_sql_pushdown_equals_batch_over_partitions(
        self, tiered_context, batch_report
    ):
        # The batch backend over a tiered store runs per-partition
        # GROUP BYs on hot shards and columnar folds on cold ones.
        assert run_intra_report(
            tiered_context, backend="batch"
        ) == batch_report

    def test_parallel_columnar_equals_batch(self, context, batch_report):
        assert run_intra_report(
            context, backend="columnar", jobs=2, use_processes=True
        ) == batch_report


class TestColumnFoldFallback:
    def test_injected_fold_crash_falls_back_row_wise(self, context):
        baseline = run_intra_report(context, backend="columnar")
        plan = FaultPlan(context.corpus_seed, [
            FaultSpec("runtime.fold", probability=1.0, max_fires=3),
        ])
        executor = Executor(backend="columnar")
        with hooks.injected(plan):
            results = executor.run(intra_report_analyses(), context)
        faulted = Executor(backend="batch").run(
            intra_report_analyses(), context
        )
        assert results == faulted
        assert plan.fired("runtime.fold") == 3
        assert executor.columnar_fallbacks == 3
        assert report_digest(baseline) == report_digest(
            run_intra_report(context, backend="columnar")
        )

    def test_fault_free_run_counts_no_fallbacks(self, context):
        executor = Executor(backend="columnar")
        executor.run(intra_report_analyses(), context)
        assert executor.columnar_fallbacks == 0


class TestSharedProcessPool:
    def test_pool_survives_across_runs(self, context, batch_report):
        shutdown_executor_pool()
        first = run_intra_report(
            context, backend="sharded", jobs=2, use_processes=True
        )
        pool = executor_module._POOL
        assert pool is not None
        second = run_intra_report(
            context, backend="columnar", jobs=2, use_processes=True
        )
        assert executor_module._POOL is pool
        assert first == second == batch_report
        shutdown_executor_pool()

    def test_shutdown_is_idempotent_and_rebuilds(self, context, batch_report):
        shutdown_executor_pool()
        shutdown_executor_pool()
        assert executor_module._POOL is None
        assert run_intra_report(
            context, backend="sharded", jobs=2, use_processes=True
        ) == batch_report
        assert executor_module._POOL is not None
        shutdown_executor_pool()
        assert executor_module._POOL is None


@pytest.fixture(scope="module")
def quarter_scale():
    """The seed-1 scale-0.25 corpus: 559 SEVs, under one default batch."""
    scenario = paper_scenario(seed=1, scale=0.25)
    store = IntraSimulator(scenario).run()
    context = RunContext(store=store, fleet=scenario.fleet,
                         corpus_seed=scenario.seed)
    return store, context


class TestSmallCorpusColumnShards:
    """A corpus smaller than ``jobs`` default batches still fans out."""

    @pytest.mark.parametrize("backend", ["sharded", "columnar"])
    def test_parallel_fold_runs_in_the_worker_pool(self, quarter_scale,
                                                   backend):
        _, context = quarter_scale
        shutdown_executor_pool()
        report = run_intra_report(
            context, backend=backend, jobs=2, use_processes=True
        )
        assert executor_module._POOL is not None
        assert report == run_intra_report(context, backend="batch")
        shutdown_executor_pool()

    @pytest.mark.parametrize("jobs", [1, 2, 3, 7])
    def test_one_non_empty_shard_per_job(self, quarter_scale, jobs):
        store, _ = quarter_scale
        shards = SEVCorpus(store).column_shards(jobs)
        assert len(shards) == min(jobs, len(store))
        sizes = [sum(len(batch) for batch in shard) for shard in shards]
        assert all(sizes)
        assert sum(sizes) == len(store)

    def test_fewer_rows_than_jobs_gives_one_row_per_shard(self,
                                                          quarter_scale):
        store, _ = quarter_scale
        tiny = SEVStore()
        tiny.insert_many(list(store.all_reports())[:3])
        shards = SEVCorpus(tiny).column_shards(8)
        assert [sum(len(b) for b in shard) for shard in shards] == [1, 1, 1]

    def test_enough_batches_keep_their_framing(self, quarter_scale):
        store, _ = quarter_scale
        shards = SEVCorpus(store).column_shards(2, batch_size=64)
        sizes = sorted(len(batch) for shard in shards for batch in shard)
        assert len(shards) == 2
        assert sizes[-1] == 64
        assert sum(sizes) == len(store)

    def test_empty_corpus_has_no_shards(self):
        assert SEVCorpus(SEVStore()).column_shards(4) == []
