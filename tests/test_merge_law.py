"""The merge law, checked directly on every fold state.

Every paper artifact is a count or a percentile sketch, so any
partition of a corpus folds to the same states: cut the records at
random points into parts, fold each part on its own (row by row or as
column batches), merge the parts in a shuffled order, and the
finalized result must be bit-identical to one sequential fold.  The
executor's worker shards rely on this law; here it is checked state by
state instead of through whole reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backbone.monitor import BackboneMonitor
from repro.faultline.oracle import report_digest
from repro.runtime import RunContext
from repro.runtime.analyses import (
    backbone_report_analyses,
    intra_report_analyses,
)
from repro.runtime.columns import batches_from_records
from repro.runtime.states import DurationSketches
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario
from repro.survivability import (
    generate_trials,
    survivability_report_analyses,
)

_QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def _summary(sketch):
    return sketch.n, [sketch.quantile(q) for q in _QUANTILES]


class _DurationSketchesProbe:
    """DurationSketches has no analysis of its own (it is the IRT half
    of the switch state); this finalizes it to its percentiles."""

    name = "duration_sketches"

    def prepare(self, context):
        return DurationSketches()

    def fold(self, report, state):
        state.fold(report)

    def fold_batch(self, batch, state):
        state.fold_batch(batch)

    def merge(self, state, other):
        return state.merge(other)

    def finalize(self, state, context):
        return {
            "by_year_type": {
                (year, device_type.value): _summary(sketch)
                for year, cell in state.by_year_type.items()
                for device_type, sketch in cell.items()
            },
            "by_year": {
                year: _summary(sketch)
                for year, sketch in state.by_year.items()
            },
        }


STATES = [
    "YearTypeCounts",
    "SeverityTallies",
    "CauseTallies",
    "DurationSketches",
    "_SwitchState",
    "OutageTallies",
    "TicketDurationSketches",
    "SurvivabilityTallies",
]


def _by_state(analyses, context):
    """Group analyses on the class name of the state they prepare."""
    groups = {}
    for analysis in analyses:
        if analysis.requires_corpus:
            state = type(analysis.prepare(context)).__name__
            groups.setdefault(state, []).append(analysis)
    return groups


@pytest.fixture(scope="module")
def cases():
    """``{state name: (domain, records, context, sharing analyses)}``."""
    scenario = paper_scenario(seed=1, scale=0.25)
    store = IntraSimulator(scenario).run()
    sev_context = RunContext(store=store, fleet=scenario.fleet,
                             corpus_seed=scenario.seed)
    sevs = list(store.all_reports())

    backbone = BackboneSimulator(paper_backbone_scenario(seed=7)).run()
    ticket_context = RunContext(
        monitor=BackboneMonitor(backbone.topology, backbone.tickets),
        topology=backbone.topology, window_h=backbone.window_h,
        corpus_seed=7,
    )
    tickets = list(backbone.tickets.completed())

    trials = generate_trials(seed=1, correlated={"trials": 4})
    trial_context = RunContext(trials=trials, corpus_seed=1)

    found = {}
    for domain, records, context, analyses in (
        ("sev", sevs, sev_context, intra_report_analyses()),
        ("ticket", tickets, ticket_context, backbone_report_analyses()),
        ("trial", list(trials.records()), trial_context,
         survivability_report_analyses()),
    ):
        for state, group in _by_state(analyses, context).items():
            found[state] = (domain, records, context, group)
    found["DurationSketches"] = (
        "sev", sevs, sev_context, [_DurationSketchesProbe()],
    )
    return found


def _finalized(group, state, context):
    return {
        analysis.name: report_digest(analysis.finalize(state, context))
        for analysis in group
    }


@pytest.fixture(scope="module")
def expected(cases):
    """Per state, the finalized results of one sequential fold."""
    results = {}
    for name, (_, records, context, group) in cases.items():
        owner = group[0]
        state = owner.prepare(context)
        for record in records:
            owner.fold(record, state)
        results[name] = _finalized(group, state, context)
    return results


def test_every_state_has_a_case(cases):
    assert sorted(cases) == sorted(STATES)


@pytest.mark.parametrize("name", STATES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_partition_merged_in_any_order_equals_one_fold(
        cases, expected, name, data):
    domain, records, context, group = cases[name]
    owner = group[0]
    k = data.draw(st.integers(min_value=1, max_value=6), label="parts")
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(records)),
                 min_size=k - 1, max_size=k - 1),
        label="cuts",
    ))
    bounds = [0, *cuts, len(records)]
    columnar = data.draw(
        st.lists(st.booleans(), min_size=k, max_size=k), label="columnar"
    )
    batch_size = data.draw(st.integers(1, 512), label="batch_size")

    parts = []
    for (start, end), as_columns in zip(zip(bounds, bounds[1:]), columnar):
        state = owner.prepare(context)
        part = records[start:end]
        if as_columns:
            for batch in batches_from_records(domain, part, batch_size):
                owner.fold_batch(batch, state)
        else:
            for record in part:
                owner.fold(record, state)
        parts.append(state)

    order = data.draw(st.permutations(range(k)), label="merge order")
    merged = owner.prepare(context)
    for index in order:
        merged = owner.merge(merged, parts[index])

    assert _finalized(group, merged, context) == expected[name]
