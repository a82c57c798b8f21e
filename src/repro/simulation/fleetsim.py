"""Live fleet simulation.

Where :mod:`repro.simulation.generator` generates a *statistically
calibrated* corpus top-down, this module simulates the operational
loop bottom-up, device by device, through the same substrates the
production stack wires together (sections 3.1 and 4.1):

* every network device gets a :class:`~repro.switchagent.agent.SwitchAgent`
  running a firmware image (FBOSS-style for fabric devices, a vendor
  stack for Cores/CSAs/CSWs);
* scheduled *fault events* crash, hang, or drift agents;
* the :class:`~repro.switchagent.monitor.HealthMonitor` sweeps on a
  fixed cadence, raising alarms;
* alarms feed the :class:`~repro.remediation.engine.RemediationEngine`;
  covered device types usually get repaired, everything else — and the
  unlucky fraction — escalates;
* escalations are authored as SEVs through the review workflow.

The emergent output is a SEV store whose per-type counts follow from
the injected fault rates and the remediation coverage, which is
exactly the paper's section 4.1 filtering argument made executable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.incidents.sev import RootCause, Severity
from repro.incidents.store import SEVStore
from repro.incidents.workflow import SEVAuthoringWorkflow, SEVDraft
from repro.remediation.engine import DeviceIssue, RemediationEngine
from repro.simulation.events import EventQueue
from repro.simulation.failures import poisson_times
from repro.switchagent.agent import AgentState, SwitchAgent
from repro.switchagent.firmware import fboss_image, vendor_image
from repro.switchagent.monitor import HealthMonitor
from repro.topology.devices import Device, DeviceType

#: Fault classes the simulator injects, with their agent effect.
_FAULTS = ("crash", "hang", "settings_drift")


@dataclass
class FleetSimReport:
    """Counters from one live simulation run."""

    faults_injected: int = 0
    alarms_raised: int = 0
    auto_repaired: int = 0
    escalated: int = 0
    sevs: int = 0
    per_type_faults: Dict[DeviceType, int] = field(default_factory=dict)

    @property
    def surfacing_ratio(self) -> float:
        """Fraction of injected faults that became SEVs."""
        if self.faults_injected == 0:
            return 0.0
        return self.sevs / self.faults_injected


class FleetSimulator:
    """Drives a built network through simulated operational time."""

    def __init__(
        self,
        network,
        engine: Optional[RemediationEngine] = None,
        fault_rate_per_device_h: float = 1e-3,
        sweep_interval_h: float = 0.25,
        expected_settings: Optional[Dict[str, str]] = None,
        impact_model=None,
        seed: int = 0,
    ) -> None:
        if fault_rate_per_device_h <= 0:
            raise ValueError("fault rate must be positive")
        if sweep_interval_h <= 0:
            raise ValueError("sweep interval must be positive")
        self._network = network
        self._rng = random.Random(seed)
        self._fault_rate = fault_rate_per_device_h
        self._sweep_interval = sweep_interval_h
        settings = dict(expected_settings or {"bgp": "v2"})
        self._expected = settings
        self.engine = engine or RemediationEngine(seed=seed)
        #: Optional repro.services.ImpactModel; when present, each
        #: SEV's service_impact field carries the assessed outcome.
        self.impact_model = impact_model
        self.monitor = HealthMonitor(
            heartbeat_timeout_h=sweep_interval_h * 2,
            expected_settings=settings,
            golden_settings=settings,
        )
        self.agents: Dict[str, SwitchAgent] = {}
        for device in network.devices.values():
            self.agents[device.name] = self._make_agent(device)
        self.store = SEVStore()
        self._workflow = SEVAuthoringWorkflow(self.store, id_prefix="live")
        self._issue_seq = 0
        self.report = FleetSimReport()

    def _make_agent(self, device: Device) -> SwitchAgent:
        image = (vendor_image() if device.device_type.vendor_sourced
                 else fboss_image())
        agent = SwitchAgent(device_name=device.name, firmware=image)
        agent.settings.update(self._expected)
        return agent

    # -- running ------------------------------------------------------------

    def run(self, hours: float) -> FleetSimReport:
        """Simulate ``hours`` of fleet operation."""
        if hours <= 0:
            raise ValueError("simulate a positive amount of time")
        queue = EventQueue()

        # Schedule faults per device.
        for name in sorted(self.agents):
            for t in poisson_times(self._fault_rate, 0.0, hours, self._rng):
                queue.schedule(t, "fault", payload=name,
                               action=self._inject_fault)
        # Schedule monitor sweeps.
        t = self._sweep_interval
        while t <= hours:
            queue.schedule(t, "sweep", action=self._sweep)
            t += self._sweep_interval

        queue.run_all()
        # Final engine drain: everything scheduled gets executed.
        self.engine.drain()
        self._author_pending_sevs(hours)
        return self.report

    # -- event handlers --------------------------------------------------------

    def _inject_fault(self, event) -> None:
        agent = self.agents[event.payload]
        if agent.state is not AgentState.RUNNING:
            return
        fault = self._rng.choice(_FAULTS)
        self.report.faults_injected += 1
        device_type = self._network.devices[event.payload].device_type
        self.report.per_type_faults[device_type] = (
            self.report.per_type_faults.get(device_type, 0) + 1
        )
        if fault == "crash":
            agent.state = AgentState.CRASHED
            agent.crash_count += 1
        elif fault == "hang":
            agent.state = AgentState.HUNG
        else:
            agent.settings["bgp"] = "drifted"

    def _sweep(self, event) -> None:
        now_h = event.at_h
        alarms = self.monitor.scan(list(self.agents.values()), now_h)
        self.report.alarms_raised += len(alarms)
        for alarm in alarms:
            agent = self.agents[alarm.device_name]
            device_type = self._network.devices[alarm.device_name].device_type
            if self.engine.covers(device_type):
                issue = DeviceIssue(
                    issue_id=f"live-{self._issue_seq:06d}",
                    device_name=alarm.device_name,
                    device_type=device_type,
                    raised_at_h=now_h,
                    kind=self.engine.sample_issue_kind(),
                )
                self._issue_seq += 1
                if self.engine.handle(issue):
                    self.monitor.repair(agent, alarm, now_h)
                    self.report.auto_repaired += 1
                else:
                    self.report.escalated += 1
                    # A human eventually fixes the device too.
                    self.monitor.repair(agent, alarm, now_h)
            else:
                self.report.escalated += 1
                self.engine.tickets.open_ticket(
                    alarm.device_name, device_type, now_h,
                    f"{alarm.kind.value} on uncovered device type",
                )
                self.monitor.repair(agent, alarm, now_h)

    # -- SEV authoring -------------------------------------------------------------

    def _author_pending_sevs(self, horizon_h: float) -> None:
        """Every escalation ticket becomes a reviewed SEV."""
        self.report.sevs += self._workflow.publish_many(
            self._escalation_drafts(horizon_h)
        )

    def _escalation_drafts(self, horizon_h: float) -> Iterator[SEVDraft]:
        for ticket in self.engine.tickets:
            is_escalation = ("automated repair failed" in ticket.summary
                             or "uncovered device type" in ticket.summary)
            if not is_escalation:
                # Technician-notify playbooks (fan, liveness) are
                # remediations, not incidents (Table 1's counting rule).
                continue
            opened = ticket.opened_at_h
            duration = min(
                self._rng.expovariate(1.0 / 24.0) + 0.5, horizon_h
            )
            cause = (RootCause.CONFIGURATION
                     if "settings" in ticket.summary
                     or "config" in ticket.summary
                     else RootCause.HARDWARE)
            yield SEVDraft(
                severity=self._rng.choices(
                    [Severity.SEV3, Severity.SEV2, Severity.SEV1],
                    weights=[0.82, 0.13, 0.05],
                )[0],
                device_name=ticket.device_name,
                opened_at_h=opened,
                resolved_at_h=opened + duration,
                root_causes=[cause],
                description=ticket.summary or "escalated device issue",
                service_impact=self._assess_impact(ticket.device_name),
            )

    def _assess_impact(self, device_name: str) -> str:
        if self.impact_model is None:
            return "assessed by the responding engineer"
        assessment = self.impact_model.assess([device_name])
        if assessment.fully_masked:
            return "fully masked by redundancy and replication"
        affected = ", ".join(assessment.affected_services)
        return (f"{assessment.worst_kind.value} for {affected}")
