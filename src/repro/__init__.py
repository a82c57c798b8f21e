"""repro — reproduction of "A Large Scale Study of Data Center Network
Reliability" (Meza, Xu, Veeraraghavan, Mutlu; IMC 2018).

The library rebuilds, from scratch, every system the study sits on —
the intra data center topologies (cluster and fabric), the fleet
growth model, the SEV database and authoring workflow, the automated
remediation engine, the backbone (edges, fiber links, vendors, repair
tickets, health monitor, traffic engineering) — plus a calibrated
synthetic corpus generator standing in for the proprietary Facebook
data, and the analysis pipeline that reproduces every table and
figure of the paper.

Quickstart::

    from repro import paper_scenario, IntraSimulator, root_cause_breakdown

    store = IntraSimulator(paper_scenario()).run()
    table2 = root_cause_breakdown(store)
    print(table2.distribution())

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record.
"""

import importlib
import importlib.util

#: Where each re-exported name lives.  The package imports none of
#: them up front (PEP 562): ``import repro`` -- and so every
#: ``python -m repro`` command -- pays only for the modules it uses.
_EXPORTS = {
    "repro.backbone": (
        "BackboneMonitor", "TicketDatabase", "TrafficEngineer",
    ),
    "repro.config": ("DeploymentPipeline", "ReviewPolicy"),
    "repro.core": (
        "backbone_reliability",
        "capacity_report",
        "continent_table",
        "design_comparison",
        "incident_distribution",
        "incident_growth",
        "incident_rates",
        "irt_vs_fleet_size",
        "population_breakdown",
        "remediation_table",
        "root_cause_breakdown",
        "root_causes_by_device",
        "severity_by_device",
        "severity_rates_over_time",
        "sevs_per_employee",
        "survivable_capacity",
        "switch_reliability",
        "switches_vs_employees",
    ),
    "repro.drtest": ("DatacenterDrainDrill", "FaultInjector", "StormDrill"),
    "repro.fleet": ("paper_employees", "paper_fleet"),
    "repro.incidents": ("RootCause", "SEVReport", "SEVStore", "Severity"),
    "repro.priorwork": ("compare_root_causes",),
    "repro.remediation": ("RemediationEngine",),
    "repro.runtime": ("Executor", "ResultCache", "RunContext"),
    "repro.services": (
        "ImpactModel", "masking_report", "place_uniform",
        "reference_catalog",
    ),
    "repro.simulation": (
        "BackboneSimulator", "IntraSimulator", "paper_backbone_scenario",
        "paper_scenario",
    ),
    "repro.stream": ("StreamAggregates", "StreamEngine"),
    "repro.survivability": ("generate_trials", "run_survivability_report"),
    "repro.topology": (
        "DeviceType",
        "NetworkDesign",
        "build_backbone",
        "build_cluster_network",
        "build_fabric_network",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Resolve a re-export, or a subpackage, on first use."""
    if name in _HOME:
        value = getattr(importlib.import_module(_HOME[name]), name)
    elif (not name.startswith("_")
          and importlib.util.find_spec(f"{__name__}.{name}") is not None):
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "1.0.0"

__all__ = sorted([*_HOME, "__version__"])
