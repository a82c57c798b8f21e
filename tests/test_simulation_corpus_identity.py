"""The generated SEV corpora are pinned row for row.

Each hash covers every field of every ``all_reports()`` row, in order,
so any change to the generators' RNG draws, id assignment or ingest
path that moves a single value fails here.  The pinned values were
computed with the one-transaction-per-SEV publishing path; block
publishing through ``bulk_load`` must reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.remediation.engine import RemediationEngine
from repro.simulation.fleetsim import FleetSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.topology.fabric import build_fabric_network


def corpus_sha256(store) -> str:
    digest = hashlib.sha256()
    for r in store.all_reports():
        row = (
            r.sev_id, int(r.severity), r.device_name, r.opened_at_h,
            r.resolved_at_h, tuple(c.value for c in r.root_causes),
            r.description, r.service_impact, r.reviewed,
        )
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


# Scale 1 is 2,240 SEVs, which crosses a bulk_load chunk boundary.
CALIBRATED = {
    1: "6285157838ba49cfc73764a4183786ebfcb37806f460d487b32c747b05af103a",
    7: "716b9c2b9287b81b1803399aab40bb6d075309c3f8191f4b7a1d0e0196b8b33a",
    13: "cde3f9bef8d76c67b28f20dafe90d27b741b41a34022cd5b89cf78901134d7ea",
}

ENGINE_COUPLED = {
    1: "1eedcc6126ac00254a0f7519da3e4fd212519c2c03a97a36f3d469d246508838",
    7: "d4d89161128a7cbcec3f3b7b487d8fe539ed8b7076a36b9205bac82d23faf860",
    13: "f186fd45fc2a060902fc15ce593f3bbf388742b927384e327d091adebcd1a39d",
}


@pytest.mark.parametrize("seed", sorted(CALIBRATED))
def test_calibrated_corpus_is_pinned(seed):
    store = IntraSimulator(paper_scenario(seed=seed, scale=1)).run()
    assert len(store) == 2240
    assert corpus_sha256(store) == CALIBRATED[seed]


@pytest.mark.parametrize("seed", sorted(ENGINE_COUPLED))
def test_engine_coupled_corpus_is_pinned(seed):
    scenario = paper_scenario(seed=seed, scale=0.05)
    engine = RemediationEngine(
        success_ratio=scenario.repair_success, seed=seed
    )
    store = IntraSimulator(scenario).run_with_engine(engine)
    assert corpus_sha256(store) == ENGINE_COUPLED[seed]


def test_fleet_escalations_are_pinned():
    network = build_fabric_network("dc1", "ra", pods=2, racks_per_pod=8,
                                   ssws=4, esws=2, cores=2)
    sim = FleetSimulator(network, fault_rate_per_device_h=1e-2, seed=4)
    report = sim.run(300.0)
    assert report.sevs == len(sim.store) == 29
    assert corpus_sha256(sim.store) == (
        "b2ca4fce2868838d04ef64fd6de7d3c2e695a3e0d85dab2a59c32c0197c76b56"
    )


def test_generation_appends_to_a_non_empty_store():
    # Ids continue from the rows already there, as they did when every
    # SEV was its own transaction.
    scenario = paper_scenario(seed=3, scale=0.05)
    store = IntraSimulator(scenario).run()
    first = len(store)
    IntraSimulator(scenario).run(store=store)
    ids = sorted(r.sev_id for r in store.all_reports())
    assert ids == [f"sev-{i:06d}" for i in range(2 * first)]
