"""Reference answers the workloads' outputs are checked against.

Each is computed in the benchmark's own process, outside any timed
region, with the per-row ``stream`` fold -- the runtime's reference
implementation -- through the library entry points.
"""

from __future__ import annotations

from typing import Dict, List

#: The served backbone study's seed: ``repro serve``'s own default.
BACKBONE_SEED = 7
#: The grid every serve-mixed write submits: 2 x 2 = 4 cells.
GRID_AXES = {"fabric_year": [2015, 2016], "hazard.CORE": [1.0, 1.5]}
GRID_SCALE = 1.0


def _intra_digest(seed: int, scale: float) -> str:
    from repro.faultline.oracle import report_digest
    from repro.runtime import RunContext, run_intra_report
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario

    scenario = paper_scenario(seed=seed, scale=scale)
    store = IntraSimulator(scenario).run()
    try:
        report = run_intra_report(
            RunContext(store=store, fleet=scenario.fleet,
                       corpus_seed=scenario.seed),
            backend="stream",
        )
    finally:
        store.close()
    return report_digest(report)


def _backbone_digest(seed: int) -> str:
    from repro.backbone.monitor import BackboneMonitor
    from repro.faultline.oracle import report_digest
    from repro.runtime import RunContext, run_backbone_report
    from repro.simulation.backbone_sim import BackboneSimulator
    from repro.simulation.scenarios import paper_backbone_scenario

    corpus = BackboneSimulator(paper_backbone_scenario(seed=seed)).run()
    context = RunContext(
        monitor=BackboneMonitor(corpus.topology, corpus.tickets),
        topology=corpus.topology, window_h=corpus.window_h,
    )
    return report_digest(run_backbone_report(context, backend="stream"))


def _survivability_digest(seed: int) -> str:
    from repro.faultline.oracle import report_digest
    from repro.runtime import RunContext
    from repro.survivability import generate_trials, run_survivability_report

    context = RunContext(trials=generate_trials(seed=seed), corpus_seed=seed)
    return report_digest(run_survivability_report(context, backend="stream"))


def full_report_digests(seed: int, scale: float) -> List[str]:
    """The three ``report_digest`` lines of ``report full --seed S``.

    In that order: intra, backbone (the CLI passes ``--seed`` to the
    backbone study too), survivability.
    """
    return [_intra_digest(seed, scale), _backbone_digest(seed),
            _survivability_digest(seed)]


def served_report_digests(seed: int, scale: float) -> Dict[str, str]:
    """The digest each ``/reports/<study>`` of ``serve --seed S`` carries.

    The server keeps the backbone study's own default seed.
    """
    return {
        "intra": _intra_digest(seed, scale),
        "backbone": _backbone_digest(BACKBONE_SEED),
        "survivability": _survivability_digest(seed),
    }


def grid_summary_digest(seed: int) -> str:
    """``summary_digest`` of the grid job one serve-mixed write submits."""
    from repro.scenarios import GridRunner, GridSpec
    from repro.scenarios import preset

    base = preset("paper").with_updates(seed=seed, scale=GRID_SCALE)
    grid = GridSpec(base=base, axes=GRID_AXES)
    return GridRunner(backend="stream").run(grid)["summary_digest"]
