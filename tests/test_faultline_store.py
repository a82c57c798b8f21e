"""SEVStore ingestion under transient SQLite faults.

The ``store.insert`` site injects ``sqlite3.OperationalError`` at the
top of a write batch; bounded-backoff retries must ride out transient
faults with every row intact, and unbounded faults must surface the
underlying error instead of spinning.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.faultline import FaultPlan, FaultSpec, hooks
from repro.incidents.store import _RETRY_ATTEMPTS, SEVStore
from repro.simulation.generator import iter_scenario_reports
from repro.simulation.scenarios import paper_scenario


@pytest.fixture(scope="module")
def reports():
    return list(iter_scenario_reports(paper_scenario(seed=5, scale=0.05)))


def transient_plan(fires: int) -> FaultPlan:
    return FaultPlan(5, [
        FaultSpec("store.insert", probability=1.0, max_fires=fires)
    ])


class TestInsertMany:
    def test_transient_fault_is_retried(self, reports):
        """One injected lock: the batch retries and every row lands."""
        plan = transient_plan(1)
        with hooks.injected(plan), SEVStore() as store:
            count = store.insert_many(reports)
            assert count == len(reports)
            assert len(store) == len(reports)
        assert plan.fired("store.insert") == 1

    def test_retry_budget_boundary(self, reports):
        """attempts-1 faults recover; attempts faults exhaust."""
        plan = transient_plan(_RETRY_ATTEMPTS - 1)
        with hooks.injected(plan), SEVStore() as store:
            assert store.insert_many(reports[:3]) == 3

        plan = transient_plan(_RETRY_ATTEMPTS)
        with hooks.injected(plan), SEVStore() as store:
            with pytest.raises(sqlite3.OperationalError,
                               match="database is locked"):
                store.insert_many(reports[:3])
            assert len(store) == 0

    def test_unbounded_faults_give_up_cleanly(self, reports):
        plan = FaultPlan(5, [FaultSpec("store.insert", probability=1.0)])
        with hooks.injected(plan), SEVStore() as store:
            with pytest.raises(sqlite3.OperationalError):
                store.insert_many(reports[:3])
        # Bounded: exactly the retry budget was drawn, then it gave up.
        assert plan.draws("store.insert") == _RETRY_ATTEMPTS

    def test_retried_batch_not_double_applied(self, reports):
        """The fault fires before any row; a retry stays exact."""
        plan = transient_plan(2)
        with hooks.injected(plan), SEVStore() as store:
            store.insert_many(reports)
            ids = [r.sev_id for r in store.all_reports()]
            assert len(ids) == len(set(ids)) == len(reports)


class TestBulkLoad:
    def test_transient_faults_during_chunked_load(self, reports):
        """Faults landing on interior chunks still load every row."""
        plan = transient_plan(2)
        with hooks.injected(plan), SEVStore() as store:
            loaded = store.bulk_load(reports, batch_size=20)
            assert loaded == len(reports)
            assert len(store) == len(reports)
            assert plan.fired("store.insert") == 2
            # The store stays fully usable: indexes rebuilt, queryable.
            assert store.index_names()
            assert store.years()

    def test_bulk_load_equivalent_to_insert_many(self, reports):
        plan = transient_plan(2)
        with hooks.injected(plan), SEVStore() as faulted:
            faulted.bulk_load(reports, batch_size=20)
            under_faults = list(faulted.all_reports())
        with SEVStore() as clean:
            clean.insert_many(reports)
            baseline = list(clean.all_reports())
        assert under_faults == baseline

    def test_exhausted_retries_roll_back_whole_load(self, reports):
        plan = FaultPlan(5, [FaultSpec("store.insert", probability=1.0)])
        with hooks.injected(plan), SEVStore() as store:
            with pytest.raises(sqlite3.OperationalError):
                store.bulk_load(reports, batch_size=20)
            assert len(store) == 0
            # Indexes and pragmas restored even on failure.
            assert store.index_names()
            (sync,) = store.connection.execute(
                "PRAGMA synchronous"
            ).fetchone()
            assert sync != 0  # OFF would be 0


class TestInsert:
    def test_single_row_insert_rides_out_transient_faults(self, reports):
        """``insert`` shares the bounded backoff of the batch paths."""
        plan = transient_plan(2)
        with hooks.injected(plan), SEVStore() as store:
            store.insert(reports[0])
            assert [r.sev_id for r in store.all_reports()] == [
                reports[0].sev_id
            ]
        assert plan.fired("store.insert") == 2

    def test_single_row_insert_gives_up_after_budget(self, reports):
        plan = FaultPlan(5, [FaultSpec("store.insert", probability=1.0)])
        with hooks.injected(plan), SEVStore() as store:
            with pytest.raises(sqlite3.OperationalError):
                store.insert(reports[0])
            assert len(store) == 0
        assert plan.draws("store.insert") == _RETRY_ATTEMPTS
