"""repro.runtime — one execution layer for batch and streaming analytics.

Every paper artifact is declared once as an
:class:`~repro.runtime.analysis.Analysis` (prepare / fold / merge /
finalize, optionally a substrate-querying ``batch`` fast path) and the
:class:`~repro.runtime.executor.Executor` runs any set of them over
three interchangeable backends — ``batch`` (per-analysis shortcut,
with per-partition SQL pushdown over tiered stores), ``stream`` (one
fused corpus pass), ``columnar`` (array-at-a-time folds over
:class:`~repro.runtime.columns.ColumnBatch` chunks, per-row fallback
for analyses that don't opt in; with ``use_processes`` the batches
fold as shards on a worker pool and the shard states merge).
``sharded`` is accepted as another name for ``columnar``.  The runtime
is domain-generic: a :class:`~repro.runtime.domain.Corpus` abstracts
the record source, and both of the paper's datasets ship as corpora —
:class:`~repro.runtime.domain.SEVCorpus` over the intra data center
SEV store (sections 4-5) and :class:`~repro.runtime.domain.TicketCorpus`
over the backbone repair-ticket database (section 6).  A
content-addressed :class:`~repro.runtime.cache.ResultCache` keyed by
domain-tagged corpus fingerprints makes repeat runs over unchanged
corpora free.
"""

from repro.runtime.analysis import Analysis, RunContext
from repro.runtime.analyses import (
    backbone_report_analyses,
    intra_report_analyses,
    registry,
)
from repro.runtime.cache import (
    ResultCache,
    corpus_fingerprint,
    ticket_fingerprint,
    trial_fingerprint,
)
from repro.runtime.columns import (
    COLUMN_BATCH_ROWS,
    ColumnBatch,
    SEVColumnBatch,
    TicketColumnBatch,
    TrialColumnBatch,
)
from repro.runtime.domain import Corpus, SEVCorpus, TicketCorpus, TrialCorpus
from repro.runtime.executor import (
    BACKENDS,
    Executor,
    run_backbone_report,
    run_intra_report,
    shutdown_executor_pool,
)
from repro.runtime.states import (
    CauseTallies,
    DurationSketches,
    OutageTallies,
    SeverityTallies,
    TicketDurationSketches,
    YearTypeCounts,
)

__all__ = [
    "Analysis",
    "BACKENDS",
    "COLUMN_BATCH_ROWS",
    "CauseTallies",
    "ColumnBatch",
    "Corpus",
    "DurationSketches",
    "Executor",
    "OutageTallies",
    "ResultCache",
    "RunContext",
    "SEVColumnBatch",
    "SEVCorpus",
    "SeverityTallies",
    "TicketColumnBatch",
    "TicketCorpus",
    "TicketDurationSketches",
    "TrialColumnBatch",
    "TrialCorpus",
    "YearTypeCounts",
    "shutdown_executor_pool",
    "backbone_report_analyses",
    "corpus_fingerprint",
    "intra_report_analyses",
    "registry",
    "run_backbone_report",
    "run_intra_report",
    "ticket_fingerprint",
    "trial_fingerprint",
]
