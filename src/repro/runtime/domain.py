"""Corpus domains: the record sources the runtime can execute over.

The paper is two studies over two record kinds — seven years of
intra data center SEV reports and eighteen months of inter data center
fiber repair tickets — and the runtime executes both through one
protocol.  A :class:`Corpus` answers the questions an execution
backend asks of a record source:

``records()``
    iterate every record (the stream/fold input);
``fingerprint()``
    a content hash for the result cache, or ``None`` when the corpus
    cannot be fingerprinted (then nothing is cached);
``batch_handle()``
    the substrate an analysis' ``batch`` fast path queries (the SQL
    store, the ticket database), or ``None``;
``column_batches()`` / ``column_shards(jobs)``
    the corpus as column batches, whole or packed into ``jobs`` worker
    shards — any partitioning is correct under the merge law.

Two concrete domains ship: :class:`SEVCorpus` over
:class:`~repro.incidents.store.SEVStore` and :class:`TicketCorpus`
over :class:`~repro.backbone.tickets.TicketDatabase`.  An
:class:`~repro.runtime.analysis.Analysis` names its domain with the
``domain`` class attribute and the executor resolves the matching
corpus from the :class:`~repro.runtime.analysis.RunContext`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.backbone.tickets import TicketDatabase
from repro.incidents.store import SEVStore
from repro.runtime.cache import (
    corpus_fingerprint,
    ticket_fingerprint,
    trial_fingerprint,
)

__all__ = ["Corpus", "SEVCorpus", "TicketCorpus", "TrialCorpus"]


class Corpus:
    """One record source the executor can run analyses over."""

    #: Domain tag; analyses with a matching ``Analysis.domain`` fold
    #: this corpus' records.
    domain: str = ""

    def __init__(self, seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        #: Generator seed, folded into the fingerprint (two corpora of
        #: equal size from different seeds must never share cache
        #: entries).
        self.seed = seed
        #: Generating scenario's spec digest, folded into the
        #: fingerprint (two corpora of equal size and seed from
        #: *different scenarios* must never share entries either).
        self.scenario = scenario

    def records(self) -> Iterable:
        raise NotImplementedError

    def fingerprint(self) -> Optional[str]:
        """Content hash for the result cache; ``None`` = uncacheable."""
        return None

    def batch_handle(self) -> Any:
        """The substrate ``Analysis.batch`` queries, if any."""
        return None

    def column_batches(self, batch_size: Optional[int] = None):
        """The corpus as :class:`~repro.runtime.columns.ColumnBatch`
        chunks — the columnar backend's scan.

        The default frames :meth:`records` into batches; domains with
        a columnar substrate (the SEV store's SQL scan) override this
        to build columns without materializing record objects at all.
        """
        from repro.runtime.columns import (
            COLUMN_BATCH_ROWS,
            batches_from_records,
        )

        return batches_from_records(
            self.domain, self.records(), batch_size or COLUMN_BATCH_ROWS
        )

    def column_shards(self, jobs: int,
                      batch_size: Optional[int] = None) -> List[list]:
        """Column batches packed into ``min(jobs, rows)`` worker shards.

        The process-parallel transport of the ``columnar`` (alias
        ``sharded``) backend: each shard is a list of batches
        (chunk-framed, cheap to pickle — columns only, no dataclass
        streams), packed longest-processing-time-first by row count.
        A corpus with fewer batches than that is re-framed into
        batches of ``rows // jobs`` rows, so a small corpus still
        reaches every worker.  Any partitioning of batches merges to
        the same states under the merge law.
        """
        from repro.stream.sharding import shard_cells

        batches = list(self.column_batches(batch_size))
        rows = sum(len(batch) for batch in batches)
        if len(batches) < min(jobs, rows):
            batches = list(self.column_batches(max(1, rows // jobs)))
        weights = [len(batch) for batch in batches]
        return shard_cells(batches, jobs, weights=weights)

    def sql_shards(self):
        """Per-shard SQL substrates for query pushdown, or ``None``.

        When the corpus is backed by SQLite shards (the partitioned
        SEV store), yields ``("store", SEVStore)`` /
        ``("records", list)`` pairs — see
        :meth:`~repro.storage.partitioned.PartitionedSEVStore.shard_stores`.
        ``None`` means no per-shard SQL form exists (monolithic stores
        answer SQL through :meth:`batch_handle` instead).
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} domain={self.domain!r}>"


class SEVCorpus(Corpus):
    """The intra data center SEV corpus (sections 4-5)."""

    domain = "sev"

    def __init__(self, store: SEVStore, seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        super().__init__(seed, scenario)
        self.store = store

    def records(self) -> Iterable:
        return self.store.all_reports()

    def fingerprint(self) -> Optional[str]:
        return corpus_fingerprint(self.store, seed=self.seed,
                                  scenario=self.scenario)

    def batch_handle(self) -> Optional[SEVStore]:
        """The SQL substrate — only the monolithic store has one.

        A partitioned store has no single connection to point SQL at;
        returning ``None`` makes every batch-capable analysis fall
        back to per-partition pushdown (:meth:`sql_shards`) or
        fold+finalize, which the cross-backend anchors prove
        result-identical.
        """
        if getattr(self.store, "is_partitioned", False):
            return None
        return self.store

    def column_batches(self, batch_size: Optional[int] = None):
        """Columnar scan straight off the SQL substrate.

        Monolithic: two queries for the whole corpus
        (:func:`~repro.runtime.columns.sev_batches_from_store`) — no
        report objects, no per-row name parsing.  Partitioned: each
        hot shard *is* a monolithic store and scans the same way; cold
        partitions frame their record lists.  Batch order follows the
        layout (global scan order / manifest order) — any framing
        merges to the same states.
        """
        from repro.runtime.columns import (
            COLUMN_BATCH_ROWS,
            sev_batches_from_records,
            sev_batches_from_store,
        )

        size = batch_size or COLUMN_BATCH_ROWS
        if not getattr(self.store, "is_partitioned", False):
            return sev_batches_from_store(self.store, size)

        def scan():
            for kind, payload in self.store.shard_stores():
                if kind == "store":
                    try:
                        yield from sev_batches_from_store(payload, size)
                    finally:
                        payload.close()
                else:
                    yield from sev_batches_from_records(payload, size)

        return scan()

    def sql_shards(self):
        """Per-partition SQL substrates when the store is tiered."""
        if getattr(self.store, "is_partitioned", False):
            shard_stores = getattr(self.store, "shard_stores", None)
            if shard_stores is not None:
                return shard_stores()
        return None


class TicketCorpus(Corpus):
    """The inter data center repair-ticket corpus (section 6)."""

    domain = "ticket"

    def __init__(self, tickets: TicketDatabase,
                 seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        super().__init__(seed, scenario)
        self.tickets = tickets

    def records(self) -> Iterable:
        return self.tickets.completed()

    def fingerprint(self) -> Optional[str]:
        return ticket_fingerprint(self.tickets, seed=self.seed,
                                  scenario=self.scenario)

    def batch_handle(self) -> TicketDatabase:
        return self.tickets


class TrialCorpus(Corpus):
    """The survivability trial corpus (the section 6.1 workload).

    Wraps a :class:`~repro.survivability.trials.TrialSet` (duck-typed:
    anything with ``records()``, ``__len__`` and ``knobs`` serves).
    Trials are generated, never stored, so there is no batch substrate
    — every backend folds, the columnar one over batches framed from
    the trial records.
    """

    domain = "trial"

    def __init__(self, trials, seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        super().__init__(seed, scenario)
        self.trials = trials

    def records(self) -> Iterable:
        return self.trials.records()

    def fingerprint(self) -> Optional[str]:
        return trial_fingerprint(self.trials, seed=self.seed,
                                 scenario=self.scenario)
